package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"itask/internal/gateway"
)

// health_test.go: a probe is one GET /healthz, read for both the liveness
// verdict and the route epoch.

// One answer, read two ways: a 200 is alive and anything else down, and the
// body's epoch is reported whatever the status; a refused dial is down with
// no epoch. Each reading is exactly one exchange.
func TestHealthReadsVerdictAndEpochFromOneExchange(t *testing.T) {
	refused, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refusedURL := "http://" + refused.Addr().String()
	refused.Close()

	for _, tc := range []struct {
		name     string
		status   int    // 0: the dial is refused
		body     string // the shard's /healthz answer
		alive    bool
		epoch    uint64
		hasEpoch bool
	}{
		{"ok", http.StatusOK, `{"status":"ok","epoch":7}`, true, 7, true},
		{"draining", http.StatusServiceUnavailable, `{"status":"draining","epoch":9}`, false, 9, true},
		{"no epoch", http.StatusOK, `{"status":"ok"}`, true, 0, false},
		{"refused dial", 0, "", false, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var healthz atomic.Int32
			base := refusedURL
			if tc.status != 0 {
				srv, _ := countingShard(t, func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path == "/healthz" {
						healthz.Add(1)
					}
					w.WriteHeader(tc.status)
					fmt.Fprint(w, tc.body)
				})
				base = srv.URL
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			epoch, hasEpoch, down := relayNode(t, base).Health(ctx)
			if (down == nil) != tc.alive || hasEpoch != tc.hasEpoch || epoch != tc.epoch {
				t.Fatalf("Health = (%d, %v, %v), want epoch (%d, %v), alive %v",
					epoch, hasEpoch, down, tc.epoch, tc.hasEpoch, tc.alive)
			}
			if want := min(tc.status, 1); int(healthz.Load()) != want {
				t.Fatalf("%d GET /healthz, want %d", healthz.Load(), want)
			}
		})
	}
}

// sweepCounter is an in-process member that counts the prober's sweeps:
// every sweep asks every live member once. Its first call, which may run
// before the shard under test has joined, blocks until released and is not
// counted.
type sweepCounter struct {
	once    sync.Once
	first   chan struct{} // closed by the first call
	release chan struct{} // the first call returns once this is closed
	sweeps  atomic.Int32
}

func (c *sweepCounter) ID() string { return "sweep-counter" }

func (c *sweepCounter) Health(context.Context) (uint64, bool, error) {
	first := false
	c.once.Do(func() {
		first = true
		close(c.first)
		<-c.release
	})
	if !first {
		c.sweeps.Add(1)
	}
	return 0, false, nil
}

// The prober makes one /healthz exchange per live shard per sweep: N sweeps
// reach the shard as N requests.
func TestProbeSweepIsOneHealthzExchange(t *testing.T) {
	var healthz atomic.Int32
	srv, _ := countingShard(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			healthz.Add(1)
		}
		fmt.Fprint(w, `{"status":"ok","epoch":1}`)
	})
	cfg := passiveCfg()
	cfg.ProbeInterval, cfg.ProbeTimeout = time.Millisecond, 5*time.Second
	g, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	counter := &sweepCounter{first: make(chan struct{}), release: make(chan struct{})}
	if err := g.AddNode(counter); err != nil {
		t.Fatal(err)
	}
	<-counter.first // a sweep is running without the shard; the next ones see it
	a := &app{g: g, pool: newConnPool()}
	n, err := a.newNode(srv.URL)
	if err == nil {
		err = g.AddNode(n)
	}
	close(counter.release)
	if err != nil {
		t.Fatal(err)
	}

	const sweeps = 20
	waitFor(t, 10*time.Second, fmt.Sprint(sweeps, " probe sweeps"), func() bool { return counter.sweeps.Load() >= sweeps })
	g.Close() // returns after the sweep in flight
	if got, want := healthz.Load(), counter.sweeps.Load(); got != want {
		t.Fatalf("%d sweeps made %d GET /healthz, want one each", want, got)
	}
}
