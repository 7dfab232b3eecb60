package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"
)

// The door helpers both commands call: what a tenant id may look like, how
// a body read is bounded and a failed one answered, and the error shape.
func TestDoorHelpers(t *testing.T) {
	tenants := []struct {
		name, tenant string
		ok           bool
	}{
		{"empty", "", true},
		{"plain", "acme-prod", true},
		{"at the bound", strings.Repeat("x", MaxTenantLen), true},
		{"utf-8", "café", true},
		{"over the bound", strings.Repeat("x", MaxTenantLen+1), false},
		{"control char", "a\x01b", false},
		{"newline", "a\nb", false},
		{"DEL", "a\x7fb", false},
	}
	for _, tc := range tenants {
		if err := ValidateTenant(tc.tenant); (err == nil) != tc.ok {
			t.Errorf("ValidateTenant(%s) = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}

	const limit = 1 << 10
	bodies := []struct {
		name   string
		req    *http.Request
		status int // 0: the read succeeds
	}{
		{"empty", httptest.NewRequest(http.MethodPost, "/", nil), 0},
		{"at the bound", httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(make([]byte, limit))), 0},
		{"chunked", httptest.NewRequest(http.MethodPost, "/", iotest.OneByteReader(strings.NewReader("chunked body"))), 0},
		// Only a genuinely oversized body is 413; other read failures
		// (client disconnects, network errors) are 400.
		{"over the bound", httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(make([]byte, limit+1))), http.StatusRequestEntityTooLarge},
		{"over the bound, undeclared", httptest.NewRequest(http.MethodPost, "/", iotest.HalfReader(bytes.NewReader(make([]byte, limit+1)))), http.StatusRequestEntityTooLarge},
		{"unreadable", httptest.NewRequest(http.MethodPost, "/", iotest.ErrReader(errors.New("connection reset"))), http.StatusBadRequest},
	}
	for _, tc := range bodies {
		rec := httptest.NewRecorder()
		buf, err := ReadBody(rec, tc.req, limit)
		if tc.status == 0 {
			if err != nil {
				t.Errorf("ReadBody(%s): %v", tc.name, err)
				continue
			}
			buf.Release()
			continue
		}
		if err == nil {
			t.Errorf("ReadBody(%s) succeeded, want a failure answered %d", tc.name, tc.status)
			continue
		}
		WriteBodyError(rec, err)
		var msg struct{ Error string }
		if rec.Code != tc.status || rec.Header().Get("Content-Type") != "application/json" ||
			json.Unmarshal(rec.Body.Bytes(), &msg) != nil || msg.Error == "" {
			t.Errorf("%s: answered %d %q %q, want %d with a JSON error", tc.name, rec.Code, rec.Header().Get("Content-Type"), rec.Body, tc.status)
		}
	}
}

// Check is the one validation both detect encodings end in; its table is
// over the decoded struct, whichever decoder filled it.
func TestDetectBodyCheck(t *testing.T) {
	const s = 8
	img := func(shape []int, n int) *DetectImage { return &DetectImage{Shape: shape, Data: make([]float32, n)} }
	scene := &DetectScene{Domain: "driving", Seed: 7}
	cases := []struct {
		name string
		body DetectBody
		ok   bool
	}{
		{"scene", DetectBody{Task: "patrol", Scene: scene, TimeoutMS: 100}, true},
		{"image", DetectBody{Task: "patrol", Tenant: "acme", Image: img([]int{3, s, s}, 3*s*s)}, true},
		{"missing task", DetectBody{Scene: scene}, false},
		{"bad tenant", DetectBody{Task: "patrol", Tenant: "a\x01b", Scene: scene}, false},
		{"long tenant", DetectBody{Task: "patrol", Tenant: strings.Repeat("x", MaxTenantLen+1), Scene: scene}, false},
		{"negative timeout", DetectBody{Task: "patrol", Scene: scene, TimeoutMS: -5}, false},
		{"neither image nor scene", DetectBody{Task: "patrol"}, false},
		{"both image and scene", DetectBody{Task: "patrol", Scene: scene, Image: img([]int{3, s, s}, 3*s*s)}, false},
		{"no shape", DetectBody{Task: "patrol", Image: img(nil, 3*s*s)}, false},
		{"wrong dim count", DetectBody{Task: "patrol", Image: img([]int{s, s}, s*s)}, false},
		{"wrong extent", DetectBody{Task: "patrol", Image: img([]int{3, 4, 4}, 48)}, false},
		{"zero extent", DetectBody{Task: "patrol", Image: img([]int{3, 0, 0}, 0)}, false},
		{"negative extent", DetectBody{Task: "patrol", Image: img([]int{3, -s, -s}, 3*s*s)}, false},
		{"huge extents", DetectBody{Task: "patrol", Image: img([]int{3, 1 << 30, 1 << 30}, 1)}, false},
		{"data/shape mismatch", DetectBody{Task: "patrol", Image: img([]int{3, s, s}, 3)}, false},
	}
	for _, tc := range cases {
		if err := tc.body.Check(s); (err == nil) != tc.ok {
			t.Errorf("%s: Check = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
