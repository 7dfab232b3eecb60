package main

import (
	"fmt"

	"itask/internal/rcache"
	"itask/internal/scene"
	"itask/internal/serve"
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

// detectCall is one detect request on its way from the door to serve: its
// fields, and its image — decoded at the door, or left in the body's bytes
// until serve asks for it (serve.Request.Decode), which it does only when
// the result cache misses.
type detectCall struct {
	// dr is the request; it owns the pixels once they are decoded.
	dr *wire.DetectBody
	// img is the image, once decoded or rendered.
	img    *tensor.Tensor
	digest uint64
	// contentType and body are the request as read: body is the handler's
	// pooled buffer, alive until the handler returns, and so through Detect.
	contentType string
	body        []byte
	// payload is a frame's pixels as wire.ProbeFrame left them.
	payload   []byte
	imageSize int
	// err is decode's refusal, a 400 like any parse error.
	err error
}

// parseCall keys a detect request off its wire bytes. A frame's digest is
// hashed from its payload. A JSON image body whose data text is in the memo
// takes the digest found there; any other body is decoded in full, as
// parseDetect decodes it, and an image that decodes has its digest memoized
// under its text. So the pixels of a frame, or of a JSON body seen before,
// are decoded only if serve asks for them, and every refusal is
// parseDetect's, word for word.
func (h *handler) parseCall(contentType string, body []byte) (*detectCall, error) {
	c := &detectCall{contentType: contentType, body: body, imageSize: h.imageSize}
	if wire.IsFrame(contentType) {
		dr, payload, err := wire.ProbeFrame(body, h.imageSize)
		if err != nil {
			return nil, err
		}
		c.dr, c.payload, c.digest = dr, payload, rcache.DigestFrame(dr.Image.Shape, payload)
		return c, nil
	}
	dr, text, probed := wire.ProbeDetect(body, h.imageSize)
	var key uint64
	if probed {
		key = memoKey(dr.Image.Shape, text)
		if d, ok := h.memo.get(key); ok {
			c.dr, c.digest = dr, d
			return c, nil
		}
	}
	dr, err := parseDetect(contentType, body, h.imageSize)
	if err != nil {
		return nil, err
	}
	if c.img, err = buildImage(dr, h.imageSize); err != nil {
		return nil, err
	}
	c.dr = dr
	if dr.Image != nil {
		c.digest = rcache.DigestImage(c.img)
		if probed {
			h.memo.put(key, c.digest)
		}
	}
	return c, nil
}

// request is the serve.Request for c, less its task, tenant and hints: a
// rendered scene as its image, an image as its digest and decode.
func (c *detectCall) request() serve.Request {
	if c.dr.Image == nil {
		return serve.Request{Image: c.img}
	}
	return serve.Request{Digest: c.digest, Decode: c.decode}
}

// decode is c's serve.Request.Decode: the image parseCall decoded, the
// frame's payload copied into pooled pixels, or a memoized body decoded in
// full — which succeeds, since its text decoded before, unless two texts
// share a memo key.
func (c *detectCall) decode() (*tensor.Tensor, error) {
	if c.img != nil {
		return c.img, nil
	}
	if c.payload != nil {
		c.dr.LoadFrame(c.payload)
	} else {
		dr, err := parseDetect(c.contentType, c.body, c.imageSize)
		if err != nil {
			c.err = err
			return nil, err
		}
		c.dr = dr
	}
	c.img = tensor.FromSlice(c.dr.Image.Data, 3, c.imageSize, c.imageSize)
	return c.img, nil
}
