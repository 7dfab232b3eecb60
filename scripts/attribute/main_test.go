package main

import (
	"strings"
	"testing"
	"time"
)

const testRules = `
# comment
first | runtime.mallocgc
forward | quant.(*Model).DetectBatch kernels.gemm*
http | net/http.*
`

// traces is three samples of go tool pprof -traces text: an allocation
// under the forward (the first row wins though the second matches too), a
// GEMM leaf under the forward, and a stack no row matches.
const traces = `File: itask-serve
Type: cpu
Duration: 8s, Total samples = 60ms
-----------+-------------------------------------------------------
      10ms   runtime.mallocgc
             itask/internal/quant.(*Model).DetectBatch
             net/http.(*conn).serve
-----------+-------------------------------------------------------
      30ms   itask/internal/kernels.gemmI8VNNIAsm
             itask/internal/kernels.GemmI8
             itask/internal/quant.(*Model).DetectBatch
             net/http.(*conn).serve
-----------+-------------------------------------------------------
      20ms   runtime.futex
             itask/internal/wire.ReadBody
-----------+-------------------------------------------------------
`

// TestFirstMatchingRowTakesTheSample pins the semantics: rows are tried in
// file order, any frame of the stack may match, and the rest is "other".
func TestFirstMatchingRowTakesTheSample(t *testing.T) {
	rows, err := parseRules(strings.NewReader(testRules))
	if err != nil {
		t.Fatal(err)
	}
	samples, err := parseTraces(strings.NewReader(traces))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("parsed %d samples, want 3", len(samples))
	}
	want := map[string]time.Duration{"first": 10 * time.Millisecond, "forward": 30 * time.Millisecond, "http": 0, "other": 20 * time.Millisecond}
	for _, r := range attribute(rows, samples) {
		if r.total != want[r.name] {
			t.Errorf("row %q = %v, want %v", r.name, r.total, want[r.name])
		}
	}
	var b strings.Builder
	writeTable(&b, rows, 100, 0.5)
	for _, line := range []string{"| forward | 300.0 | 50.0 % |", "| **sum of rows** | **600.0** | |", "| run's `raw.cpu_us_per_req` | 0.5 (rows +119900 %) | |"} {
		if !strings.Contains(b.String(), line) {
			t.Errorf("table lacks %q:\n%s", line, b.String())
		}
	}
}

// TestPatternsMatchAfterASlash: a pattern matches the whole name or a
// suffix starting after a '/', never across one.
func TestPatternsMatchAfterASlash(t *testing.T) {
	for _, c := range []struct {
		p, frame string
		want     bool
	}{
		{"wire.DecodeDetect", "itask/internal/wire.DecodeDetect", true},
		{"net/http.*", "net/http.(*conn).serve", true},
		{"net/http.*", "vendor/golang.org/x/net/http/httpguts.ValidHeaderFieldName", false},
		{"net.*", "net/http.(*conn).serve", false},
		{"kernels.gemmI8*", "itask/internal/kernels.gemmI8VNNIAsm", true},
		{"rcache.*", "itask/internal/rcache.(*Cache).Get", true},
		{"serve.*", "itask/internal/serveish.X", false},
	} {
		if got := matchFrame(c.p, c.frame); got != c.want {
			t.Errorf("matchFrame(%q, %q) = %v", c.p, c.frame, got)
		}
	}
	if _, err := parseRules(strings.NewReader("bad line without a bar")); err == nil {
		t.Error("a rule line without '|' parsed")
	}
}
