package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"itask/internal/serve"
	"itask/internal/wire"
)

const testImageSize = 8

// validImageBody builds a well-formed /v1/detect body for an 8×8 server.
func validImageBody(t *testing.T) []byte {
	t.Helper()
	data := make([]float32, 3*testImageSize*testImageSize)
	body, err := json.Marshal(map[string]any{
		"task":  "patrol",
		"image": map[string]any{"shape": []int{3, testImageSize, testImageSize}, "data": data},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestParseDetectRequestAcceptsValidBodies(t *testing.T) {
	dr, err := parseDetect("", validImageBody(t), testImageSize)
	if err != nil {
		t.Fatal(err)
	}
	img, err := buildImage(dr, testImageSize)
	if err != nil {
		t.Fatal(err)
	}
	if got := img.Shape; len(got) != 3 || got[0] != 3 || got[1] != testImageSize {
		t.Errorf("built image shape %v", got)
	}

	dr, err = parseDetect("", []byte(`{"task":"patrol","scene":{"domain":"driving","seed":7},"timeout_ms":100}`), testImageSize)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Scene == nil || dr.TimeoutMS != 100 {
		t.Errorf("scene request parsed as %+v", dr)
	}

	dr, err = parseDetect("", []byte(`{"task":"patrol","tenant":"acme-prod","scene":{"domain":"driving"}}`), testImageSize)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Tenant != "acme-prod" {
		t.Errorf("tenant parsed as %q", dr.Tenant)
	}
}

func TestParseDetectRequestRejectsMalformedBodies(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"empty", ``},
		{"truncated JSON", `{"task":"patrol"`},
		{"not JSON", `<html>`},
		{"missing task", `{"scene":{"domain":"driving"}}`},
		{"neither image nor scene", `{"task":"patrol"}`},
		{"both image and scene", `{"task":"patrol","image":{"shape":[3,8,8],"data":[]},"scene":{"domain":"driving"}}`},
		{"zero-size image", `{"task":"patrol","image":{"shape":[3,0,0],"data":[]}}`},
		{"huge dims", `{"task":"patrol","image":{"shape":[3,1099511627776,1099511627776],"data":[1]}}`},
		{"negative dims", `{"task":"patrol","image":{"shape":[3,-8,-8],"data":[]}}`},
		{"wrong dim count", `{"task":"patrol","image":{"shape":[8,8],"data":[]}}`},
		{"data/shape mismatch", `{"task":"patrol","image":{"shape":[3,8,8],"data":[1,2,3]}}`},
		{"unknown domain", `{"task":"patrol","scene":{"domain":"atlantis"}}`},
		{"negative timeout", `{"task":"patrol","scene":{"domain":"driving"},"timeout_ms":-5}`},
		{"trailing garbage", `{"task":"patrol","scene":{"domain":"driving"}}garbage`},
		{"second JSON value", `{"task":"patrol","scene":{"domain":"driving"}}{"task":"x"}`},
		{"trailing bracket", `{"task":"patrol","scene":{"domain":"driving"}}]`},
		{"oversized tenant", `{"task":"patrol","tenant":"` + strings.Repeat("x", 65) + `","scene":{"domain":"driving"}}`},
		{"control-char tenant", `{"task":"patrol","tenant":"a\u0001b","scene":{"domain":"driving"}}`},
		{"newline tenant", `{"task":"patrol","tenant":"a\nb","scene":{"domain":"driving"}}`},
	}
	for _, tc := range cases {
		if _, err := parseDetect("", []byte(tc.body), testImageSize); err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.body)
		}
	}
}

// FuzzParseDetectRequest asserts the /v1/detect parser never panics and
// never accepts a body whose image spec could not be materialized exactly:
// whatever bytes arrive, the outcome is a clean 400 or a tensor-backed
// request.
func FuzzParseDetectRequest(f *testing.F) {
	f.Add([]byte(`{"task":"patrol","scene":{"domain":"driving","seed":7}}`))
	f.Add([]byte(`{"task":"patrol","image":{"shape":[3,8,8],"data":[0]}}`))
	f.Add([]byte(`{"task":"","image":{"shape":[],"data":[]}}`))
	f.Add([]byte(`{"task":"p","image":{"shape":[3,0,0],"data":[]}}`))
	f.Add([]byte(`{"task":"p","image":{"shape":[3,1099511627776,1099511627776],"data":[1]}}`))
	f.Add([]byte(`{"task":"p","timeout_ms":-9223372036854775808}`))
	f.Add([]byte(`{"task":"p","tenant":"acme","scene":{"domain":"driving"}}`))
	f.Add([]byte(`{"task":"p","tenant":"` + strings.Repeat("t", 65) + `","scene":{"domain":"driving"}}`))
	f.Add([]byte(`{"task":"p","tenant":"a\u0001b","scene":{"domain":"driving"}}`))
	f.Add([]byte(`{"task":"p","scene":{"domain":"driving"}}{"task":"q"}`))
	f.Add([]byte(`{"task":"p","scene":{"domain":"driving"}} ` + "\n"))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte("\x00\xff\xfe"))
	f.Fuzz(func(t *testing.T, body []byte) {
		dr, err := parseDetect("", body, testImageSize)
		if err != nil {
			return
		}
		if dr.Task == "" {
			t.Fatalf("accepted request without task: %q", body)
		}
		if (dr.Image == nil) == (dr.Scene == nil) {
			t.Fatalf("accepted request without exactly one of image/scene: %q", body)
		}
		if dr.TimeoutMS < 0 {
			t.Fatalf("accepted negative timeout: %q", body)
		}
		if len(dr.Tenant) > wire.MaxTenantLen {
			t.Fatalf("accepted oversized tenant id: %q", body)
		}
		for _, b := range []byte(dr.Tenant) {
			if b < 0x20 || b == 0x7f {
				t.Fatalf("accepted control character in tenant id: %q", body)
			}
		}
		// A validated image spec must materialize without panicking, at
		// exactly the advertised size. (Scene generation is exercised by
		// its own package tests; rebuilding scenes per fuzz input would
		// dominate the run.)
		if dr.Image != nil {
			img, err := buildImage(dr, testImageSize)
			if err != nil {
				t.Fatalf("validated image failed to build: %v", err)
			}
			if len(img.Data) != 3*testImageSize*testImageSize {
				t.Fatalf("built image has %d values", len(img.Data))
			}
		}
	})
}

func TestStatusOfMapsFailureModes(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("wrap: %w", serve.ErrBadShape), http.StatusBadRequest},
		{serve.ErrQueueFull, http.StatusTooManyRequests},
		{&serve.TenantBudgetError{Tenant: "acme", RetryAfter: time.Second}, http.StatusTooManyRequests},
		{serve.ErrShuttingDown, http.StatusServiceUnavailable},
		{&serve.BreakerOpenError{Variant: "v", Task: "t", RetryAfter: time.Second}, http.StatusServiceUnavailable},
		{&serve.PanicError{Value: "boom"}, http.StatusInternalServerError},
		{serve.ErrDeadlineExceeded, http.StatusGatewayTimeout},
		{serve.ErrWatchdog, http.StatusGatewayTimeout},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{fmt.Errorf("unknown task"), http.StatusNotFound},
	}
	for _, tc := range cases {
		if got := statusOf(tc.err); got != tc.want {
			t.Errorf("statusOf(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestRetryAfterHints(t *testing.T) {
	if ra, ok := retryAfter(&serve.BreakerOpenError{RetryAfter: 2500 * time.Millisecond}); !ok || ra != 3 {
		t.Errorf("breaker retry-after = %d,%v, want 3,true (rounded up)", ra, ok)
	}
	if ra, ok := retryAfter(&serve.BreakerOpenError{RetryAfter: 0}); !ok || ra != 1 {
		t.Errorf("zero-backoff breaker retry-after = %d,%v, want 1,true", ra, ok)
	}
	if ra, ok := retryAfter(serve.ErrQueueFull); !ok || ra != 1 {
		t.Errorf("queue-full retry-after = %d,%v, want 1,true", ra, ok)
	}
	if ra, ok := retryAfter(&serve.TenantBudgetError{Tenant: "acme", RetryAfter: 1200 * time.Millisecond}); !ok || ra != 2 {
		t.Errorf("tenant-budget retry-after = %d,%v, want 2,true (rounded up)", ra, ok)
	}
	if _, ok := retryAfter(serve.ErrWatchdog); ok {
		t.Error("watchdog expiry should carry no retry-after")
	}
}

func TestParseTenantWeights(t *testing.T) {
	got, err := parseTenantWeights("gold=4, silver=2,free=1")
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]int{"gold": 4, "silver": 2, "free": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("parsed %v, want %v", got, want)
	}
	for _, bad := range []string{"gold", "gold=", "=4", "gold=0", "gold=-1", "gold=x", "gold=1,gold=2", "a\nb=1"} {
		if _, err := parseTenantWeights(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}
