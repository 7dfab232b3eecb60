package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// stubGateway records announce/deregister traffic like the real gateway's
// /v1/announce endpoint, with a switchable failure mode to exercise the
// announcer's backoff-and-recover path.
type stubGateway struct {
	srv *httptest.Server

	leaseMS int // the lease_ms every ack grants

	mu        sync.Mutex
	fail      bool
	announces []announcePost
	leaves    []string
}

type announcePost struct {
	URL   string `json:"url"`
	Epoch uint64 `json:"epoch"`
}

func newStubGateway(t *testing.T, leaseMS int) *stubGateway {
	t.Helper()
	g := &stubGateway{leaseMS: leaseMS}
	g.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/announce" {
			http.NotFound(w, r)
			return
		}
		g.mu.Lock()
		defer g.mu.Unlock()
		if g.fail {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		switch r.Method {
		case http.MethodPost:
			var p announcePost
			if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			g.announces = append(g.announces, p)
			json.NewEncoder(w).Encode(map[string]any{
				"id": p.URL, "state": "active", "weight": 1.0, "lease_ms": g.leaseMS,
			})
		case http.MethodDelete:
			g.leaves = append(g.leaves, r.URL.Query().Get("url"))
			json.NewEncoder(w).Encode(map[string]any{"left": true})
		default:
			http.Error(w, "bad method", http.StatusMethodNotAllowed)
		}
	}))
	t.Cleanup(g.srv.Close)
	return g
}

func (g *stubGateway) setFail(v bool) {
	g.mu.Lock()
	g.fail = v
	g.mu.Unlock()
}

func (g *stubGateway) snapshot() (announces []announcePost, leaves []string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]announcePost(nil), g.announces...), append([]string(nil), g.leaves...)
}

func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestAnnouncerHeartbeatsAndDeregisters(t *testing.T) {
	// A 90 ms lease: the heartbeat is derived from the ack as a third of it.
	// Were it not (the pre-ack default is a second), three heartbeats would
	// not land inside the 1.5 s below.
	gw := newStubGateway(t, 90)
	var epoch uint64 = 7
	a := newAnnouncer(gw.srv.URL, "http://127.0.0.1:9999/", func() uint64 { return epoch })
	a.start()

	waitUntil(t, 1500*time.Millisecond, "three heartbeats", func() bool {
		ann, _ := gw.snapshot()
		return len(ann) >= 3
	})
	if got := a.State(); got != "active" {
		t.Fatalf("State() = %q, want active", got)
	}

	a.close(context.Background())
	ann, leaves := gw.snapshot()
	for i, p := range ann {
		// The trailing slash must be normalized away: the URL is the member
		// identity, and "x/" and "x" must not register as two members.
		if p.URL != "http://127.0.0.1:9999" {
			t.Fatalf("announce %d advertised %q", i, p.URL)
		}
		if p.Epoch != 7 {
			t.Fatalf("announce %d = %+v, want epoch 7", i, p)
		}
	}
	if len(leaves) != 1 || leaves[0] != "http://127.0.0.1:9999" {
		t.Fatalf("leaves = %v, want one for the shard URL", leaves)
	}

	// After close the loop is stopped: no further announces arrive.
	n := len(ann)
	time.Sleep(120 * time.Millisecond)
	ann, _ = gw.snapshot()
	if len(ann) != n {
		t.Fatalf("announcer kept heartbeating after close: %d -> %d", n, len(ann))
	}
}

func TestAnnouncerRetriesThroughGatewayOutage(t *testing.T) {
	gw := newStubGateway(t, 60)
	gw.setFail(true)
	a := newAnnouncer(gw.srv.URL, "http://127.0.0.1:9998", nil)
	a.heartbeat = 20 * time.Millisecond // no ack has set it yet
	a.start()
	defer a.close(context.Background())

	// While failing, no announce lands but the loop keeps trying (bounded
	// backoff caps at 4×heartbeat, so recovery lands well within a second).
	time.Sleep(100 * time.Millisecond)
	if ann, _ := gw.snapshot(); len(ann) != 0 {
		t.Fatalf("announces landed while gateway failing: %d", len(ann))
	}
	gw.setFail(false)
	waitUntil(t, 5*time.Second, "recovery announce", func() bool {
		ann, _ := gw.snapshot()
		return len(ann) >= 1
	})
}

func TestAnnouncerDeregisterTolerates404(t *testing.T) {
	// A lease that already expired deregisters as 404; that is success (the
	// gateway is not routing here), not an error worth holding up drain for.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}))
	defer srv.Close()
	a := newAnnouncer(srv.URL, "http://127.0.0.1:9997", nil)
	if err := a.deregister(context.Background()); err != nil {
		t.Fatalf("deregister on 404: %v", err)
	}
}

func TestAnnouncerNextDelay(t *testing.T) {
	a := newAnnouncer("http://g", "http://s", nil)
	a.heartbeat = 100 * time.Millisecond
	for i := 0; i < 200; i++ {
		if d := a.nextDelay(0); d < 75*time.Millisecond || d >= 125*time.Millisecond {
			t.Fatalf("healthy delay %v outside [75ms, 125ms)", d)
		}
		// Backoff draws stay under the 4×heartbeat cap even at high failure
		// counts (where the shifted ceiling has long overflowed).
		if d := a.nextDelay(20); d >= 400*time.Millisecond {
			t.Fatalf("backoff delay %v >= cap", d)
		}
		if d := a.nextDelay(1); d >= 25*time.Millisecond {
			t.Fatalf("first backoff %v >= base 25ms", d)
		}
	}
}

func TestAdvertiseURL(t *testing.T) {
	cases := []struct {
		addr string
		want string
	}{
		{"0.0.0.0:8080", "http://127.0.0.1:8080"},
		{"[::]:8080", "http://127.0.0.1:8080"},
		{"192.168.1.5:9090", "http://192.168.1.5:9090"},
		{"[::1]:9090", "http://[::1]:9090"},
	}
	for _, c := range cases {
		addr, err := net.ResolveTCPAddr("tcp", c.addr)
		if err != nil {
			t.Fatalf("resolve %q: %v", c.addr, err)
		}
		if got := advertiseURL(addr); got != c.want {
			t.Errorf("advertiseURL(%q) = %q, want %q", c.addr, got, c.want)
		}
	}
}
