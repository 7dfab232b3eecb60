package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// announce.go: the shard side of the gateway's lease-based membership.
// With -announce, itask-serve registers itself against the gateway's
// POST /v1/announce endpoint and keeps the lease alive by re-announcing on
// a jittered heartbeat. Each announce carries the shard's route epoch, the
// identity of the content its registry serves, so the gateway routes to it
// only while that is the fleet's committed content. On SIGTERM the shard
// deregisters (DELETE /v1/announce) before draining, so the gateway stops
// routing to it immediately instead of discovering the loss through a lease
// expiry.
//
// The heartbeat is a third of the lease the gateway's ack grants (lease_ms),
// so it cannot be configured longer than the lease it keeps alive. It is
// jittered ±25% so a fleet of shards started together does not renew in
// lockstep, and a failed announce retries with full-jitter
// exponential backoff (base heartbeat/4, capped at 4×heartbeat) — an
// unreachable gateway costs a bounded, decorrelated trickle of dials, not a
// tight reconnect loop.

// announcer keeps one shard registered with one gateway.
type announcer struct {
	gateway string // gateway base URL
	self    string // this shard's advertised base URL (the member identity)
	// heartbeat is the renewal cadence: a second until the first ack, then a
	// third of the granted lease. Only the run loop touches it.
	heartbeat time.Duration
	epoch     func() uint64 // current route epoch, sent with each announce
	hc        *http.Client
	logf      func(format string, args ...any)

	mu    sync.Mutex
	state string // last state reported by the gateway ("" until first ack)

	stop chan struct{}
	done sync.WaitGroup
}

func newAnnouncer(gateway, self string, epoch func() uint64) *announcer {
	if epoch == nil {
		epoch = func() uint64 { return 0 }
	}
	return &announcer{
		gateway:   strings.TrimSuffix(gateway, "/"),
		self:      strings.TrimSuffix(self, "/"),
		heartbeat: time.Second,
		epoch:     epoch,
		hc:        &http.Client{Timeout: 5 * time.Second},
		logf:      func(string, ...any) {},
		stop:      make(chan struct{}),
	}
}

// start launches the heartbeat loop.
func (a *announcer) start() {
	a.done.Add(1)
	go a.run()
}

// close stops the heartbeat loop and deregisters from the gateway, so the
// caller can drain knowing no new requests will be routed here. Safe to
// call once; the deregistration honors ctx.
func (a *announcer) close(ctx context.Context) {
	close(a.stop)
	a.done.Wait()
	if err := a.deregister(ctx); err != nil {
		a.logf("itask-serve: deregister: %v", err)
	}
}

// State reports the membership state from the last successful announce.
func (a *announcer) State() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.state
}

func (a *announcer) run() {
	defer a.done.Done()
	fails := 0
	for {
		if err := a.announceOnce(context.Background()); err != nil {
			if fails == 0 {
				a.logf("itask-serve: announce to %s: %v (retrying)", a.gateway, err)
			}
			fails++
		} else {
			if fails > 0 {
				a.logf("itask-serve: announce to %s: recovered after %d failures", a.gateway, fails)
			}
			fails = 0
		}
		t := time.NewTimer(a.nextDelay(fails))
		select {
		case <-a.stop:
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// nextDelay is the pause before the next announce: the jittered heartbeat
// (uniform in [0.75h, 1.25h)) while healthy, full-jitter exponential
// backoff (uniform in [0, min(h/4 × 2^fails, 4h))) while the gateway is
// unreachable.
func (a *announcer) nextDelay(fails int) time.Duration {
	h := a.heartbeat
	if fails == 0 {
		return h*3/4 + rand.N(h/2)
	}
	ceil := (h / 4) << uint(fails-1)
	if max := 4 * h; ceil > max || ceil <= 0 {
		ceil = max
	}
	return rand.N(ceil)
}

// announceOnce POSTs one announce/heartbeat and records the gateway's view
// of this shard's membership state and the lease it granted.
func (a *announcer) announceOnce(ctx context.Context) error {
	body, _ := json.Marshal(map[string]any{"url": a.self, "epoch": a.epoch()})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.gateway+"/v1/announce", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("gateway returned %d: %s", resp.StatusCode, strings.TrimSpace(string(payload)))
	}
	var ack struct {
		State   string `json:"state"`
		LeaseMS int64  `json:"lease_ms"`
	}
	_ = json.Unmarshal(payload, &ack)
	if ack.LeaseMS > 0 {
		a.heartbeat = time.Duration(ack.LeaseMS) * time.Millisecond / 3
	}
	a.mu.Lock()
	a.state = ack.State
	a.mu.Unlock()
	return nil
}

// deregister removes this shard from the gateway's membership (graceful
// leave). A 404 — the lease already expired — counts as success: either
// way the gateway is no longer routing here.
func (a *announcer) deregister(ctx context.Context) error {
	u := a.gateway + "/v1/announce?url=" + url.QueryEscape(a.self)
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, u, nil)
	if err != nil {
		return err
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("gateway returned %d", resp.StatusCode)
	}
	return nil
}

// advertiseURL derives the base URL other processes should use to reach a
// listener bound to addr: an unspecified host (":8080", "0.0.0.0:8080",
// "[::]:8080") advertises the loopback address, since "listen everywhere"
// gives a peer nothing dialable.
func advertiseURL(addr net.Addr) string {
	host, port, err := net.SplitHostPort(addr.String())
	if err != nil {
		return "http://" + addr.String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}
