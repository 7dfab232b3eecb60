package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"testing/iotest"

	"itask/internal/serve"
	"itask/internal/tensor"
	"itask/internal/testutil"
	"itask/internal/wire"
)

// fakeBackend serves every task on one variant with empty payloads — just
// enough backend for the HTTP handler to run requests end to end.
type fakeBackend struct{}

func (fakeBackend) Route(task string) (string, error) { return "fake@v1", nil }

func (fakeBackend) DetectBatch(variant, task string, imgs []*tensor.Tensor) ([]any, string, error) {
	payloads := make([]any, len(imgs))
	return payloads, variant, nil
}

func newTestHandler(t *testing.T) *handler {
	t.Helper()
	// The default cache is on: digest equivalence shows up as a hit.
	srv, err := serve.New(fakeBackend{}, serve.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	return &handler{srv: srv, imageSize: testImageSize}
}

func testFrameBodies(t *testing.T) (jsonBody, binBody []byte) {
	t.Helper()
	r := rand.New(rand.NewSource(5))
	data := make([]float32, 3*testImageSize*testImageSize)
	for i := range data {
		data[i] = r.Float32()
	}
	jsonBody, err := json.Marshal(map[string]any{
		"task":   "patrol",
		"tenant": "acme",
		"image":  map[string]any{"shape": []int{3, testImageSize, testImageSize}, "data": data},
	})
	if err != nil {
		t.Fatal(err)
	}
	binBody = wire.AppendFrame(nil, "patrol", "acme", 0,
		[3]int{3, testImageSize, testImageSize}, data)
	return jsonBody, binBody
}

func postDetect(h *handler, body []byte, contentType string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	h.detect(rec, req)
	return rec
}

// A binary frame and its JSON twin must behave identically end to end: both
// 200, and — because they digest to the same cache key — the second request
// is served from the result cache regardless of which encoding primed it.
func TestDetectBinaryAndJSONAreEquivalent(t *testing.T) {
	jsonBody, binBody := testFrameBodies(t)

	type resp struct {
		Task   string `json:"task"`
		Cached bool   `json:"cached"`
	}
	decode := func(rec *httptest.ResponseRecorder) resp {
		t.Helper()
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("response Content-Type %q", ct)
		}
		var v resp
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		return v
	}

	// JSON primes the cache, binary hits it.
	h := newTestHandler(t)
	if v := decode(postDetect(h, jsonBody, "application/json")); v.Cached {
		t.Fatal("first (JSON) request already cached")
	}
	if v := decode(postDetect(h, binBody, wire.ContentType)); !v.Cached {
		t.Fatal("binary twin missed the cache primed by JSON — digests diverge")
	}

	// And the other way around, on a fresh server.
	h = newTestHandler(t)
	if v := decode(postDetect(h, binBody, wire.ContentType)); v.Cached {
		t.Fatal("first (binary) request already cached")
	}
	if v := decode(postDetect(h, jsonBody, "application/json")); !v.Cached {
		t.Fatal("JSON twin missed the cache primed by binary — digests diverge")
	}

	// Content-Type parameters after the media type still select the frame
	// parser.
	h = newTestHandler(t)
	if rec := postDetect(h, binBody, wire.ContentType+"; v=1"); rec.Code != http.StatusOK {
		t.Fatalf("parameterized content type: status %d: %s", rec.Code, rec.Body.String())
	}
}

func TestParseDetectFrame(t *testing.T) {
	_, binBody := testFrameBodies(t)
	dr, err := parseDetect(wire.ContentType, binBody, testImageSize)
	if err != nil {
		t.Fatal(err)
	}
	img, err := buildImage(dr, testImageSize)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Task != "patrol" || dr.Tenant != "acme" || dr.TimeoutMS != 0 {
		t.Fatalf("frame parsed as %+v", dr)
	}
	if len(img.Data) != 3*testImageSize*testImageSize {
		t.Fatalf("image has %d values", len(img.Data))
	}
	// The tensor must not alias the body: a watchdog-abandoned execution may
	// read it after the pooled body buffer is recycled.
	before := img.Data[0]
	for i := range binBody {
		binBody[i] = 0xff
	}
	if img.Data[0] != before {
		t.Fatal("parsed tensor aliases the request body")
	}

	data := make([]float32, 3*testImageSize*testImageSize)
	shape := [3]int{3, testImageSize, testImageSize}
	cases := []struct {
		name string
		body []byte
	}{
		{"not a frame", []byte(`{"task":"patrol"}`)},
		{"truncated", wire.AppendFrame(nil, "patrol", "", 0, shape, data)[:40]},
		{"missing task", wire.AppendFrame(nil, "", "", 0, shape, data)},
		// One tenant case shows the frame path reaches the shared Check; its
		// full table is internal/wire's TestDetectBodyCheck.
		{"control-char tenant", wire.AppendFrame(nil, "patrol", "a\x01b", 0, shape, data)},
		{"wrong shape", wire.AppendFrame(nil, "patrol", "", 0, [3]int{3, 4, 4}, make([]float32, 48))},
	}
	for _, tc := range cases {
		if _, err := parseDetect(wire.ContentType, tc.body, testImageSize); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// FuzzParseDetectFrame asserts the binary parser never panics and only
// accepts bodies that materialize an exactly-sized tensor with a valid
// task/tenant — the binary mirror of FuzzParseDetectRequest.
func FuzzParseDetectFrame(f *testing.F) {
	data := make([]float32, 3*testImageSize*testImageSize)
	shape := [3]int{3, testImageSize, testImageSize}
	full := wire.AppendFrame(nil, "patrol", "acme", 250, shape, data)
	f.Add(full)
	f.Add(full[:17])                               // truncated header
	f.Add(full[:len(full)-3])                      // truncated payload
	f.Add(append(append([]byte{}, full...), 0xAA)) // trailing byte
	f.Add([]byte("iTSK"))
	f.Add([]byte(`{"task":"patrol"}`))
	f.Add(wire.AppendFrame(nil, "", "", 0, shape, data))
	f.Add(wire.AppendFrame(nil, "patrol", "a\x01b", 0, shape, data))
	f.Add(wire.AppendFrame(nil, "patrol", "", 0, [3]int{1, 1, 1}, make([]float32, 1)))
	// Hostile dims whose product overflows: hand-built header.
	hostile := wire.AppendFrame(nil, "p", "", 0, [3]int{1, 1, 1}, make([]float32, 1))
	for i := 20; i < 32; i++ {
		hostile[i] = 0xff
	}
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, body []byte) {
		dr, err := parseDetect(wire.ContentType, body, testImageSize)
		if err != nil {
			return
		}
		img, err := buildImage(dr, testImageSize)
		if err != nil {
			t.Fatalf("validated frame failed to build: %v", err)
		}
		if dr.Task == "" {
			t.Fatalf("accepted frame without task")
		}
		if len(dr.Tenant) > wire.MaxTenantLen {
			t.Fatal("accepted oversized tenant id")
		}
		for _, b := range []byte(dr.Tenant) {
			if b < 0x20 || b == 0x7f {
				t.Fatal("accepted control character in tenant id")
			}
		}
		if dr.TimeoutMS < 0 {
			t.Fatal("accepted negative timeout")
		}
		if img == nil || len(img.Data) != 3*testImageSize*testImageSize {
			t.Fatalf("accepted frame with wrong image size")
		}
	})
}

// Every response out of the detect handler — success or failure, JSON or
// binary ingress — must carry Content-Type: application/json.
func TestDetectErrorResponsesCarryJSONContentType(t *testing.T) {
	h := &handler{imageSize: testImageSize}
	cases := []struct {
		name string
		rec  *httptest.ResponseRecorder
		code int
	}{
		{"method not allowed", func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.detect(rec, httptest.NewRequest(http.MethodGet, "/v1/detect", nil))
			return rec
		}(), http.StatusMethodNotAllowed},
		{"bad JSON", postDetect(h, []byte(`{`), "application/json"), http.StatusBadRequest},
		{"trailing garbage", postDetect(h, []byte(`{"task":"patrol","scene":{"domain":"driving"}}]`), ""), http.StatusBadRequest},
		{"binary garbage", postDetect(h, []byte("not a frame"), wire.ContentType), http.StatusBadRequest},
		{"oversized", postDetect(h, bytes.Repeat([]byte("x"), wire.MaxBodyBytes+1), ""), http.StatusRequestEntityTooLarge},
		{"unreadable", func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.detect(rec, httptest.NewRequest(http.MethodPost, "/v1/detect", iotest.ErrReader(errors.New("connection reset"))))
			return rec
		}(), http.StatusBadRequest},
	}
	for _, tc := range cases {
		if tc.rec.Code != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, tc.rec.Code, tc.code)
		}
		if ct := tc.rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", tc.name, ct)
		}
		if !json.Valid(tc.rec.Body.Bytes()) {
			t.Errorf("%s: body is not JSON: %q", tc.name, tc.rec.Body.String())
		}
	}
}

const ingressSize = 32

// ingressBodies builds a JSON image body as a client marshals it and its
// binary twin, at the default 3×32×32 frame size.
func ingressBodies(tb testing.TB) (jsonBody, binBody []byte) {
	tb.Helper()
	r := rand.New(rand.NewSource(5))
	data := make([]float32, 3*ingressSize*ingressSize)
	for i := range data {
		data[i] = r.Float32()
	}
	jsonBody, err := json.Marshal(map[string]any{
		"task":  "patrol",
		"image": map[string]any{"shape": []int{3, ingressSize, ingressSize}, "data": data},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return jsonBody, wire.AppendFrame(nil, "patrol", "", 0, [3]int{3, ingressSize, ingressSize}, data)
}

// ingest is the serve handler's ingress leg: pooled body read, parse, tensor
// materialization, buffer release, and — as after a successful Detect — the
// pixels' release.
func ingest(tb testing.TB, rd *bytes.Reader, body []byte, contentType string) {
	rd.Reset(body)
	buf, err := wire.ReadAll(rd, len(body))
	if err != nil {
		tb.Fatal(err)
	}
	dr, err := parseDetect(contentType, buf.Bytes(), ingressSize)
	if err != nil {
		tb.Fatalf("parse: %v", err)
	}
	img, err := buildImage(dr, ingressSize)
	buf.Release()
	if err != nil || img == nil {
		tb.Fatalf("build: %v", err)
	}
	dr.Release()
}

// TestJSONIngestAllocs pins what reading a frame allocates at either door:
// the decoded body, its task string and the tensor header around the pixels
// — a constant, the JSON leg no more than the binary leg, whatever the
// width — and neither door allocates pixels: they come from the pool and go
// back to it. (Under -race sync.Pool drops one Put in four, so the body and
// pixel buffers cost a fraction of a reallocation each per op — one more
// object in all, and no byte pin.)
func TestJSONIngestAllocs(t *testing.T) {
	jsonBody, binBody := ingressBodies(t)
	slack := 0.0
	if testutil.Race {
		slack = 1
	}
	for _, procs := range []int{1, 2} {
		perOp := func(body []byte, contentType string) float64 {
			rd := bytes.NewReader(body)
			objects, size := testutil.MemPerRunAt(procs, 200, func() { ingest(t, rd, body, contentType) })
			if !testutil.Race && size >= 1024 {
				t.Errorf("GOMAXPROCS=%d: %s ingress allocates %.0f bytes/op, want < 1024 (pixels are %d)",
					procs, contentType, size, 4*3*ingressSize*ingressSize)
			}
			return objects
		}
		jsonAllocs, binAllocs := perOp(jsonBody, "application/json"), perOp(binBody, wire.ContentType)
		if jsonAllocs > 5+slack {
			t.Errorf("GOMAXPROCS=%d: JSON ingress allocates %.0f objects/op, want <= %.0f", procs, jsonAllocs, 5+slack)
		}
		if jsonAllocs > binAllocs+slack {
			t.Errorf("GOMAXPROCS=%d: JSON ingress allocates %.0f objects/op, the binary leg %.0f", procs, jsonAllocs, binAllocs)
		}
	}
}

// BenchmarkServeIngress measures the serve handler's ingress layer — pooled
// body read, parse, tensor materialization — for a JSON body and its binary
// twin at the default 3×32×32 frame size. The Detect call itself is
// identical either way, so this is where the encodings differ.
func BenchmarkServeIngress(b *testing.B) {
	jsonBody, binBody := ingressBodies(b)
	run := func(b *testing.B, body []byte, contentType string) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		rd := bytes.NewReader(body)
		for i := 0; i < b.N; i++ {
			ingest(b, rd, body, contentType)
		}
	}
	b.Run("json", func(b *testing.B) { run(b, jsonBody, "application/json") })
	b.Run("binary", func(b *testing.B) { run(b, binBody, wire.ContentType) })
}
