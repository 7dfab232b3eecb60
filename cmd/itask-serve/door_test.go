package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"itask/internal/chaos"
	"itask/internal/serve"
	"itask/internal/tensor"
	"itask/internal/testutil"
	"itask/internal/wire"
)

// door_test.go: itask-serve's mux behind the door server answers as it
// does behind net/http.Server, and a caller that leaves while its request
// waits in the queue gets it shed, never executed.

// parityBackend is fakeBackend that cannot route the task "unknown" and
// counts its executions.
type parityBackend struct {
	fakeBackend
	executions *atomic.Int32
}

func (b parityBackend) Route(task string) (string, error) {
	if task == "unknown" {
		return "", errors.New("no such task")
	}
	return b.fakeBackend.Route(task)
}

func (b parityBackend) DetectBatch(variant, task string, imgs []*tensor.Tensor) ([]any, string, error) {
	b.executions.Add(1)
	return b.fakeBackend.DetectBatch(variant, task, imgs)
}

// doorShard is one itask-serve handler on a chaos backend.
type doorShard struct {
	h          *handler
	srv        *serve.Server
	chaos      *chaos.Backend
	executions *atomic.Int32
}

func newDoorShard(t *testing.T, cfg serve.Config) *doorShard {
	t.Helper()
	d := &doorShard{executions: new(atomic.Int32)}
	d.chaos = chaos.Wrap(parityBackend{executions: d.executions}, chaos.Config{})
	srv, err := serve.New(d.chaos, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	d.srv = srv
	d.h = &handler{srv: srv, backend: d.chaos, imageSize: testImageSize}
	return d
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
		door.Shutdown(ctx)
	})
	return "http://" + ln.Addr().String()
}

// imageBody is a detect body for a seeded image: JSON, or as a frame.
func imageBody(t *testing.T, task string, seed int64, frame bool) []byte {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	data := make([]float32, 3*testImageSize*testImageSize)
	for i := range data {
		data[i] = r.Float32()
	}
	if frame {
		return wire.AppendFrame(nil, task, "", 0, [3]int{3, testImageSize, testImageSize}, data)
	}
	b, err := json.Marshal(map[string]any{
		"task":  task,
		"image": map[string]any{"shape": []int{3, testImageSize, testImageSize}, "data": data},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The shard's real mux behind net/http.Server and behind the door server,
// each on a shard of its own, answers the same request sequence with the
// same statuses, headers (Date and framing aside) and bodies (wall-clock
// fields aside): every answer carries its Content-Type, and nothing is
// left to sniffing.
func TestDoorAnswersAsNetHTTP(t *testing.T) {
	cfg := serve.DefaultConfig()
	cfg.NegativeTTL = time.Minute
	const jsonType = "application/json"
	cases := []struct {
		name, method, path, contentType string
		body                            []byte
		before                          func(*doorShard)
		status                          int
	}{
		{name: "JSON detect", method: "POST", path: "/v1/detect", contentType: jsonType, body: imageBody(t, "patrol", 1, false), status: 200},
		{name: "cache hit", method: "POST", path: "/v1/detect", contentType: jsonType, body: imageBody(t, "patrol", 1, false), status: 200},
		{name: "frame detect", method: "POST", path: "/v1/detect", contentType: wire.ContentType, body: imageBody(t, "patrol", 2, true), status: 200},
		{name: "malformed body", method: "POST", path: "/v1/detect", contentType: jsonType, body: []byte(`{"task":`), status: 400},
		{name: "unknown task", method: "POST", path: "/v1/detect", contentType: jsonType, body: imageBody(t, "unknown", 1, false), status: 404},
		{name: "unknown path", method: "GET", path: "/v2/detect", status: 404},
		{name: "GET detect", method: "GET", path: "/v1/detect", status: 405},
		{name: "oversized body", method: "POST", path: "/v1/detect", contentType: jsonType, body: make([]byte, wire.MaxBodyBytes+1), status: 413},
		{name: "backend panic", method: "POST", path: "/v1/detect", contentType: wire.ContentType, body: imageBody(t, "patrol", 3, true), status: 500,
			before: func(d *doorShard) { d.chaos.Break("fake@v1", chaos.FaultPanic) }},
		{name: "quarantined", method: "POST", path: "/v1/detect", contentType: wire.ContentType, body: imageBody(t, "patrol", 3, true), status: 422,
			before: func(d *doorShard) { d.chaos.Heal("fake@v1") }},
		{name: "draining", method: "POST", path: "/v1/detect", contentType: wire.ContentType, body: imageBody(t, "patrol", 4, true), status: 503,
			before: func(d *doorShard) { d.srv.Shutdown(context.Background()) }},
	}
	var answers [2][]testutil.Answer
	for i, front := range []func(http.Handler) string{
		func(h http.Handler) string { s := httptest.NewServer(h); t.Cleanup(s.Close); return s.URL },
		func(h http.Handler) string { return serveDoor(t, h) },
	} {
		d := newDoorShard(t, cfg)
		base := front(d.h.mux())
		client := &http.Client{Transport: &http.Transport{}}
		for _, tc := range cases {
			if tc.before != nil {
				tc.before(d)
			}
			a := testutil.Exchange(t, client, base, tc.method, tc.path, tc.contentType, tc.body)
			if a.Status != tc.status || a.Header.Get("Content-Type") == "" {
				t.Fatalf("server %d, %s: status %d, Content-Type %q: %s", i, tc.name, a.Status, a.Header.Get("Content-Type"), a.Body)
			}
			answers[i] = append(answers[i], a)
		}
	}
	for i, tc := range cases {
		if !reflect.DeepEqual(answers[0][i], answers[1][i]) {
			t.Errorf("%s:\nnet/http %+v\ndoor     %+v", tc.name, answers[0][i], answers[1][i])
		}
	}
}

// A caller that closes its connection while its request waits behind
// parked workers gets the request shed (ShedCancelled) and never executed.
func TestDoorCallerLeavesIsShed(t *testing.T) {
	cfg := serve.DefaultConfig()
	cfg.Workers = 1
	d := newDoorShard(t, cfg)
	returned := make(chan struct{}, 2)
	mux := d.h.mux()
	base := serveDoor(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mux.ServeHTTP(w, r)
		returned <- struct{}{}
	}))
	release := d.chaos.Park(cfg.Workers, func() {
		if _, err := d.srv.Submit(serve.Request{Task: "patrol", Image: tensor.New(3, testImageSize, testImageSize)}); err != nil {
			t.Fatal(err)
		}
	})
	defer release()

	c, err := net.Dial("tcp", base[len("http://"):])
	if err != nil {
		t.Fatal(err)
	}
	body := imageBody(t, "patrol", 9, true)
	fmt.Fprintf(c, "POST /v1/detect HTTP/1.1\r\nHost: shard\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n%s", wire.ContentType, len(body), body)
	waitUntil(t, 5*time.Second, "the request to queue", func() bool { return d.srv.Snapshot().Accepted == 2 })
	c.Close()
	<-returned // Detect saw the context end
	release()
	waitUntil(t, 5*time.Second, "the request to be shed", func() bool { return d.srv.Snapshot().ShedCancelled == 1 })
	if got := d.executions.Load(); got != 1 {
		t.Fatalf("%d executions, want only the plug's: the cancelled request ran", got)
	}

	// The door still answers on a fresh connection.
	c, err = net.Dial("tcp", base[len("http://"):])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fmt.Fprintf(c, "POST /v1/detect HTTP/1.1\r\nHost: shard\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n%s", wire.ContentType, len(body), body)
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("the same frame afterwards: status %d", resp.StatusCode)
	}
}
