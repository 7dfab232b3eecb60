package main

import (
	"fmt"

	"itask/internal/scene"
	"itask/internal/tensor"
	"itask/internal/wire"
)

// parseDetect is wire.ParseDetect — the decoder the Content-Type declares,
// then DetectBody.Check against the server's image size — plus the one rule
// wire cannot hold: a scene's domain must be one this build renders. Every
// return path is either a request buildImage can materialize or an error fit
// for HTTP 400 — the function must never panic, whatever the bytes (both
// decoders are fuzzed through it).
func parseDetect(contentType string, body []byte, imageSize int) (*wire.DetectBody, error) {
	dr, err := wire.ParseDetect(contentType, body, imageSize)
	if err != nil {
		return nil, err
	}
	if dr.Scene != nil {
		if _, ok := scene.DomainByName(dr.Scene.Domain); !ok {
			return nil, fmt.Errorf("unknown domain %q", dr.Scene.Domain)
		}
	}
	return dr, nil
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
