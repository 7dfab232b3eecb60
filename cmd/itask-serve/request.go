package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"itask/internal/scene"
	"itask/internal/tensor"
	"itask/internal/wire"
)

// parseDetect decodes a /v1/detect body with the decoder its Content-Type
// declares — a binary tensor frame for application/x-itask-tensor
// (parameters after the media type are tolerated), JSON for everything else
// — and validates it against the server's image size. Both decoders fill a
// wire.DetectBody and both end in its Check, so the two encodings cannot
// disagree about what a valid request is. Every return path is either a
// request buildImage can materialize or an error fit for HTTP 400 — the
// function must never panic, whatever the bytes (both decoders are fuzzed
// through it).
func parseDetect(contentType string, body []byte, imageSize int) (*wire.DetectBody, error) {
	decode := decodeJSON
	if strings.HasPrefix(contentType, wire.ContentType) {
		decode = decodeFrame
	}
	dr, err := decode(body)
	if err != nil {
		return nil, err
	}
	if err := dr.Check(imageSize); err != nil {
		return nil, err
	}
	if dr.Scene != nil {
		if _, ok := scene.DomainByName(dr.Scene.Domain); !ok {
			return nil, fmt.Errorf("unknown domain %q", dr.Scene.Domain)
		}
	}
	return dr, nil
}

func decodeJSON(body []byte) (*wire.DetectBody, error) {
	var dr wire.DetectBody
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&dr); err != nil {
		return nil, fmt.Errorf("bad JSON: %v", err)
	}
	// One value per body: json.Decoder stops at the end of the first value,
	// so `{...}garbage` would otherwise be accepted with the garbage ignored
	// — and two callers disagreeing on where a body ends is how smuggled
	// payloads start. A second decode must see clean EOF.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, errors.New("trailing data after JSON body")
	}
	return &dr, nil
}

// decodeFrame copies the payload out of body: body is a pooled buffer the
// handler releases on return, while a watchdog-abandoned execution may keep
// reading the image long after that, so the pixels must not alias it.
func decodeFrame(body []byte) (*wire.DetectBody, error) {
	fr, err := wire.ParseFrame(body)
	if err != nil {
		if errors.Is(err, wire.ErrNotFrame) {
			return nil, fmt.Errorf("Content-Type %s but body is not a tensor frame", wire.ContentType)
		}
		return nil, err
	}
	img := &wire.DetectImage{Shape: fr.Shape[:], Data: make([]float32, fr.Elems())}
	wire.Float32s(fr.Payload, img.Data)
	return &wire.DetectBody{
		Task:      string(fr.Task),
		Tenant:    string(fr.Tenant),
		TimeoutMS: int(fr.TimeoutMS),
		Image:     img,
	}, nil
}

// buildImage materializes a request parseDetect accepted into a (3,S,S)
// tensor: the image's own pixels, or the rendered scene.
func buildImage(dr *wire.DetectBody, imageSize int) (*tensor.Tensor, error) {
	if dr.Image != nil {
		return tensor.FromSlice(dr.Image.Data, 3, imageSize, imageSize), nil
	}
	dom, ok := scene.DomainByName(dr.Scene.Domain)
	if !ok {
		return nil, fmt.Errorf("unknown domain %q", dr.Scene.Domain)
	}
	sc := scene.Generate(dom, scene.DefaultGenConfig(), tensor.NewRNG(dr.Scene.Seed))
	return sc.Image, nil
}
