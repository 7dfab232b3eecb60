package wire

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
)

// door.go: the rules both HTTP doors (cmd/itask-serve and cmd/itask-gateway)
// hold about a request before any serving code sees it — how large a body
// may be and how a failed read is answered, what a tenant id may look like,
// the JSON shape of a detect body, the semantic check a detect request must
// clear whichever encoding carried it, and the shard's parse that ends in it.

// MaxBodyBytes bounds a /v1/detect body at both doors (relaying a body the
// shard would reject at its own door wastes a round trip). A 64×64×3 image
// serialized as JSON floats is ~150 KiB; 4 MiB leaves ample headroom while
// keeping a hostile request from ballooning the decoder.
const MaxBodyBytes = 4 << 20

// MaxTenantLen bounds a tenant identifier. Tenant ids become map keys in
// the scheduler, quarantine entries, the gateway's accounting and metrics
// labels, so the edge keeps them short and printable rather than letting a
// client mint unbounded or log-hostile strings.
const MaxTenantLen = 64

// ValidateTenant checks a tenant identifier from a body's "tenant" field, a
// frame header or the X-Itask-Tenant header. Empty is fine (the serving
// layer assigns the default tenant); anything present must be short and
// free of control characters.
func ValidateTenant(tenant string) error {
	if len(tenant) > MaxTenantLen {
		return fmt.Errorf("tenant id exceeds %d bytes", MaxTenantLen)
	}
	for _, b := range []byte(tenant) {
		if b < 0x20 || b == 0x7f {
			return errors.New("tenant id contains control characters")
		}
	}
	return nil
}

// ReadBody drains a request body into a pooled buffer bounded by limit,
// pre-sized by the declared Content-Length (chunked or absurd declarations
// start small and grow as real bytes arrive). Answer a failure with
// WriteBodyError.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int) (*Buf, error) {
	hint := int(r.ContentLength)
	if hint < 0 || hint > limit {
		hint = 0
	}
	return ReadAll(http.MaxBytesReader(w, r.Body, int64(limit)), hint)
}

// WriteBodyError answers a failed ReadBody. Only an actual
// entity-too-large condition is 413; other read failures (client
// disconnects, network errors) are the request's problem, not its size.
func WriteBodyError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		WriteError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
		return
	}
	WriteError(w, http.StatusBadRequest, "unreadable request body")
}

// DetectBody is the JSON POST /v1/detect body. Exactly one of Image and
// Scene must be set: Image carries raw pixels, Scene renders a synthetic
// scene server-side (handy for curl demos). Both doors read it with
// DecodeDetect — the shard then calls Check, the gateway only derives a
// routing key and leaves the verdict to the shard. A binary frame is decoded
// into the same struct, so both encodings end in the same Check. The json
// tags are the schema DecodeDetect implements and its tests hold it to.
type DetectBody struct {
	Task string `json:"task"`
	// Tenant attributes the request for weighted-fair scheduling and
	// budgets; it wins over the X-Itask-Tenant header when both are set.
	Tenant    string       `json:"tenant,omitempty"`
	Image     *DetectImage `json:"image,omitempty"`
	Scene     *DetectScene `json:"scene,omitempty"`
	TimeoutMS int          `json:"timeout_ms,omitempty"`

	// pixels is the pooled buffer Image.Data lives in, nil when there is
	// none (see the function pixels).
	pixels *Buf
}

// Release hands the decoded pixels back to the pool they were decoded into,
// after which any goroutine may overwrite Image.Data. Call it only once
// nothing will read the pixels again; a body never released leaves them to
// the garbage collector, which is always safe. A second Release is a no-op.
func (b *DetectBody) Release() {
	b.pixels.Release()
	b.pixels = nil
}

// DetectImage is a detect body's raw-pixel payload: row-major (C,H,W).
type DetectImage struct {
	Shape []int     `json:"shape"`
	Data  []float32 `json:"data"`
}

// DetectScene names a deterministic synthetic scene.
type DetectScene struct {
	Domain string `json:"domain"`
	Seed   uint64 `json:"seed"`
}

// Check is the line every detect request must clear at the shard, whichever
// encoding carried it: a task, a well-formed tenant, a non-negative timeout,
// and exactly one of a scene or an image of exactly [3,S,S] with data to
// match. After Check the image spec can be materialized without allocation
// surprises. Errors are fit for HTTP 400.
func (b *DetectBody) Check(imageSize int) error {
	if err := b.checkRequest(imageSize); err != nil {
		return err
	}
	if b.Image != nil && len(b.Image.Data) != 3*imageSize*imageSize {
		return fmt.Errorf("image data has %d values, want %d", len(b.Image.Data), 3*imageSize*imageSize)
	}
	return nil
}

// checkRequest is Check short of the image data's length: everything a
// probe can check before the pixels are decoded.
func (b *DetectBody) checkRequest(imageSize int) error {
	if b.Task == "" {
		return errors.New("missing task")
	}
	if err := ValidateTenant(b.Tenant); err != nil {
		return err
	}
	if b.TimeoutMS < 0 {
		return fmt.Errorf("negative timeout_ms %d", b.TimeoutMS)
	}
	switch {
	case b.Image != nil && b.Scene != nil:
		return errors.New("set either image or scene, not both")
	case b.Image == nil && b.Scene == nil:
		return errors.New("set image or scene")
	case b.Image != nil:
		s := imageSize
		sh := b.Image.Shape
		// Exact-shape check: dimension count, then each extent. Checking
		// extents individually (rather than multiplying) sidesteps overflow
		// on hostile dims like [3, 1<<40, 1<<40].
		if len(sh) != 3 || sh[0] != 3 || sh[1] != s || sh[2] != s {
			return fmt.Errorf("image shape must be [3,%d,%d], got %v", s, s, sh)
		}
	}
	return nil
}

// ParseDetect is what a shard serving [3,S,S] images makes of a /v1/detect
// body: it decodes with the decoder the Content-Type declares — a binary
// tensor frame for application/x-itask-tensor (parameters after the media
// type are tolerated; see IsFrame), JSON for everything else — and Checks the
// result against imageSize. Both decoders fill a DetectBody and both end in
// Check, so the two encodings cannot disagree about what a valid request is,
// and the gateway's tests hold routeKey to this verdict rather than to a copy
// of it. The result shares no memory with body; its pixels are pooled memory
// (see Release). Errors are fit for HTTP 400; the function must never panic,
// whatever the bytes.
func ParseDetect(contentType string, body []byte, imageSize int) (*DetectBody, error) {
	if IsFrame(contentType) {
		dr, payload, err := ProbeFrame(body, imageSize)
		if err != nil {
			return nil, err
		}
		dr.LoadFrame(payload)
		return dr, nil
	}
	dr, err := DecodeDetect(body, imageSize)
	if err != nil {
		return nil, err
	}
	if err := dr.Check(imageSize); err != nil {
		dr.Release() // nothing outside this function has seen the pixels
		return nil, err
	}
	return dr, nil
}

// IsFrame reports whether a Content-Type declares a binary tensor frame.
func IsFrame(contentType string) bool { return strings.HasPrefix(contentType, ContentType) }

// ProbeFrame is ParseDetect for a binary frame short of the pixel copy: the
// frame parsed and Checked — a frame's payload always matches its shape, so
// that is the whole verdict — with its payload returned as it is, aliasing
// body, and the body's Image.Data left unset until LoadFrame. Errors are
// ParseDetect's.
func ProbeFrame(body []byte, imageSize int) (*DetectBody, []byte, error) {
	fr, err := ParseFrame(body)
	if err != nil {
		if errors.Is(err, ErrNotFrame) {
			return nil, nil, fmt.Errorf("Content-Type %s but body is not a tensor frame", ContentType)
		}
		return nil, nil, err
	}
	blk := &detectBlock{shape: fr.Shape}
	blk.body = DetectBody{
		Task:      string(fr.Task),
		Tenant:    string(fr.Tenant),
		TimeoutMS: int(fr.TimeoutMS),
		Image:     &blk.image,
	}
	blk.image.Shape = blk.shape[:]
	if err := blk.body.checkRequest(imageSize); err != nil {
		return nil, nil, err
	}
	return &blk.body, fr.Payload, nil
}

// LoadFrame decodes the payload ProbeFrame returned with b into pooled
// pixels as b's image data (see Release). The pixels do not alias the
// payload: the body it came from is a pooled buffer the handler releases on
// return, while a watchdog-abandoned execution may keep reading the image
// long after that.
func (b *DetectBody) LoadFrame(payload []byte) {
	b.Image.Data, b.pixels = pixels(len(payload) / 4)
	Float32s(payload, b.Image.Data)
}
