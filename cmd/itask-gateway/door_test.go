package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"itask/internal/testutil"
	"itask/internal/wire"
)

// The gateway's real mux behind net/http.Server and behind the door
// server, each a gateway of its own over the same fake shard, answers the
// same request sequence with the same statuses, headers (Date and framing
// aside) and bodies: every answer carries its Content-Type, and nothing is
// left to sniffing.
func TestDoorAnswersAsNetHTTP(t *testing.T) {
	b := newFakeBackend("b0")
	t.Cleanup(b.srv.Close)
	jsonBody, frameBody := twinBodies(t, "patrol", 7)
	const jsonType = "application/json"
	cases := []struct {
		name, method, path, contentType string
		body                            []byte
		force                           int // the shard's forced detect status
		status                          int
	}{
		{name: "JSON detect", method: "POST", path: "/v1/detect", contentType: jsonType, body: jsonBody, status: 200},
		{name: "frame detect", method: "POST", path: "/v1/detect", contentType: wire.ContentType, body: frameBody, status: 200},
		{name: "scene detect", method: "POST", path: "/v1/detect", contentType: jsonType, body: []byte(sceneBody("patrol", 3)), status: 200},
		{name: "bad tenant", method: "POST", path: "/v1/detect", contentType: jsonType,
			body: []byte(`{"task":"patrol","tenant":"` + strings.Repeat("t", wire.MaxTenantLen+1) + `","scene":{"domain":"driving","seed":1}}`), status: 400},
		{name: "unknown member", method: "DELETE", path: "/v1/announce?url=http://127.0.0.1:1", status: 404},
		{name: "unknown path", method: "GET", path: "/v2/detect", status: 404},
		{name: "GET detect", method: "GET", path: "/v1/detect", status: 405},
		{name: "oversized body", method: "POST", path: "/v1/detect", contentType: jsonType, body: make([]byte, wire.MaxBodyBytes+1), status: 413},
		{name: "oversized reload", method: "POST", path: "/v1/models/reload", contentType: jsonType, body: make([]byte, wire.MaxBodyBytes+1), status: 413},
		{name: "shard verdict", method: "POST", path: "/v1/detect", contentType: jsonType, body: jsonBody, force: 422, status: 422},
		{name: "shard backpressure", method: "POST", path: "/v1/detect", contentType: jsonType, body: jsonBody, force: 429, status: 429},
		{name: "leave", method: "DELETE", path: "/v1/announce?url=" + b.srv.URL, status: 200},
		{name: "no shard", method: "POST", path: "/v1/detect", contentType: jsonType, body: jsonBody, status: 503},
	}
	var answers [2][]testutil.Answer
	for i, front := range []func(http.Handler) string{
		func(h http.Handler) string { s := httptest.NewServer(h); t.Cleanup(s.Close); return s.URL },
		func(h http.Handler) string { return serveDoor(t, h) },
	} {
		a, err := newApp(passiveCfg(), []string{b.srv.URL}, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(a.g.Close)
		base := front(a.mux())
		client := &http.Client{Transport: &http.Transport{}}
		for _, tc := range cases {
			b.forceStatus(tc.force)
			ans := testutil.Exchange(t, client, base, tc.method, tc.path, tc.contentType, tc.body)
			if ans.Status != tc.status || ans.Header.Get("Content-Type") == "" {
				t.Fatalf("server %d, %s: status %d, Content-Type %q: %s", i, tc.name, ans.Status, ans.Header.Get("Content-Type"), ans.Body)
			}
			answers[i] = append(answers[i], ans)
		}
	}
	for i, tc := range cases {
		if !reflect.DeepEqual(answers[0][i], answers[1][i]) {
			t.Errorf("%s:\nnet/http %+v\ndoor     %+v", tc.name, answers[0][i], answers[1][i])
		}
	}
}

// serveDoor serves h behind the door server until the test ends.
func serveDoor(t *testing.T, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	door := &wire.Server{Handler: h}
	go door.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := door.Shutdown(ctx); err != nil {
			t.Errorf("door shutdown: %v", err)
		}
	})
	return fmt.Sprintf("http://%s", ln.Addr())
}
