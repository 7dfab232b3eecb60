package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"itask"
	"itask/internal/geom"
	"itask/internal/wire"
)

// encodingJSON is what WriteJSON wrote for a detect answer before it had
// its own encoder: json.Encoder's bytes, trailing newline included.
func encodingJSON(t *testing.T, r *detectResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// written is the response WriteAppendedJSON sends for r.
func written(r *detectResponse) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	wire.WriteAppendedJSON(rec, http.StatusOK, r.appendJSON)
	return rec
}

// The detect answer's own encoder writes exactly json.Encoder's bytes over a
// seeded corpus of awkward floats and strings, with the optional members
// present and absent and the detection list empty, absent and long; and so
// does a cached answer's, whose detections are encoded into the answer memo
// once and then written from it under other timings and flags.
func TestDetectResponseMatchesEncodingJSON(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 42, 1e6, 123456789, 1 << 53,
		1e-6, 1e-7, -1e-7, 9.999999e-7, 1e20, 1e21, -1e21, 1.5e300,
		5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, // subnormals and the smallest normal
		0.1, 1.0 / 3, math.MaxFloat64, math.SmallestNonzeroFloat64, 0.5625,
	}
	strs := []string{
		"", "patrol", "m@v3#5f0e", "car", "a<b>&c", `quote"back\slash`,
		"tab\tnew\nline\r", "\x00\x01\x1f\x7f", "bad\xffutf8\xc3", "line\u2028para\u2029",
		"héllo wörld", "日本", "emoji \U0001F600",
	}
	r := rand.New(rand.NewSource(30))
	float := func() float64 {
		if r.Intn(3) == 0 {
			return (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(60)-30))
		}
		return floats[r.Intn(len(floats))]
	}
	str := func() string { return strs[r.Intn(len(strs))] }
	var answers answerMemo
	for i := 0; i < 2000; i++ {
		resp := detectResponse{
			Task: str(), Model: str(), BatchSize: r.Intn(3) - 1,
			QueuedUS: float(), TotalUS: float(),
		}
		if r.Intn(2) == 0 {
			resp.Degraded = str()
		}
		resp.Cached = r.Intn(2) == 0
		resp.Coalesced = r.Intn(2) == 0
		switch n := r.Intn(6); n {
		case 0: // the handler never sends null, but the encoder agrees anyway
		case 1:
			resp.Detections = []itask.Detection{}
		default:
			for j := 0; j < n; j++ {
				resp.Detections = append(resp.Detections, itask.Detection{
					Box:   geom.Box{X: float(), Y: float(), W: float(), H: float()},
					Class: str(), ClassID: r.Intn(2000) - 1000,
					Score: float(), Relevance: float(),
				})
			}
		}
		check := func(how string, resp *detectResponse) {
			t.Helper()
			want := encodingJSON(t, resp)
			rec := written(resp)
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("case %d, %s (%+v):\n got %d %s\nwant 200 %s", i, how, *resp, rec.Code, rec.Body.Bytes(), want)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q", ct)
			}
		}
		check("unmemoized", &resp)
		if resp.Detections == nil {
			continue
		}
		resp.answers = &answers
		check("encoded into the memo", &resp)
		if _, ok := answers.get(resp.Detections); !ok {
			t.Fatalf("case %d: the answer was not memoized", i)
		}
		resp.QueuedUS, resp.TotalUS = float(), float()
		resp.Cached, resp.Coalesced = !resp.Cached, r.Intn(2) == 0
		resp.Degraded = ""
		if r.Intn(2) == 0 {
			resp.Degraded = str()
		}
		check("written from the memo", &resp)
	}
}

// A float JSON cannot carry fails the answer with WriteJSON's own 500 body,
// as encoding/json's refusal did; a cached one fails on every hit, and is
// never memoized.
func TestDetectResponseNaNIsA500(t *testing.T) {
	var answers answerMemo
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		resp := detectResponse{Task: "patrol", Model: "m", BatchSize: 1, Detections: []itask.Detection{
			{Class: "car", Score: 0.5}, {Class: "bus", Score: bad},
		}}
		old := httptest.NewRecorder()
		wire.WriteJSON(old, http.StatusOK, resp)
		for hit := 0; hit < 3; hit++ {
			rec := written(&resp)
			if rec.Code != http.StatusInternalServerError || rec.Code != old.Code ||
				rec.Body.String() != `{"error":"response encoding failed"}`+"\n" || rec.Body.String() != old.Body.String() {
				t.Fatalf("score %v, hit %d: got %d %q, WriteJSON gives %d %q", bad, hit, rec.Code, rec.Body, old.Code, old.Body)
			}
			if _, ok := answers.get(resp.Detections); ok {
				t.Fatalf("score %v, hit %d: an answer that failed to encode was memoized", bad, hit)
			}
			resp.Cached, resp.answers = true, &answers
		}
	}
}
