package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"itask/internal/chaos"
	"itask/internal/gateway"
)

// netchaos_test.go: the self-healing acceptance tests. A fleet assembled
// purely from announcements is driven through real network faults
// (chaos.NetProxy between gateway and backend) and must keep every healthy
// request whole: a blackholed shard is ejected by lease expiry, its keys
// rehash, and it rejoins — slow-started, and on the ring once it serves the
// fleet's committed content — when the network heals and it announces again.

// leasedFleet is one fake backend reachable only through its fault proxy,
// plus the announce loop a real itask-serve would run.
type leasedFleet struct {
	front    *httptest.Server
	app      *app
	backends []*fakeBackend
	proxies  []*chaos.NetProxy
	urls     []string // proxied base URLs — the member identities

	mu     sync.Mutex
	beatOn []bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

func (f *leasedFleet) announceOnce(t *testing.T, i int, epoch uint64) map[string]any {
	t.Helper()
	body := fmt.Sprintf(`{"url":%q,"epoch":%d,"capacity":4}`, f.urls[i], epoch)
	resp, err := http.Post(f.front.URL+"/v1/announce", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("announce %s: %v", f.urls[i], err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("announce %s: status %d decode err %v", f.urls[i], resp.StatusCode, err)
	}
	return out
}

// setBeat pauses or resumes shard i's heartbeat loop — the test's stand-in
// for the shard losing (or regaining) its network path to the gateway.
func (f *leasedFleet) setBeat(i int, on bool) {
	f.mu.Lock()
	f.beatOn[i] = on
	f.mu.Unlock()
}

func (f *leasedFleet) beating(i int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.beatOn[i]
}

// epochOf reads backend i's current route epoch (what a real shard would
// report in its heartbeat).
func (f *leasedFleet) epochOf(i int) uint64 {
	f.backends[i].mu.Lock()
	defer f.backends[i].mu.Unlock()
	return f.backends[i].seq
}

func newLeasedFleet(t *testing.T, n int, cfg gateway.Config) *leasedFleet {
	t.Helper()
	f := &leasedFleet{stop: make(chan struct{}), beatOn: make([]bool, n)}
	a, err := newApp(cfg, nil, 5*time.Second) // no static seeds: announce-only fleet
	if err != nil {
		t.Fatal(err)
	}
	f.app = a
	f.front = httptest.NewServer(a.mux())
	for i := 0; i < n; i++ {
		b := newFakeBackend(fmt.Sprintf("shard-%d", i))
		px, err := chaos.NewNetProxy("127.0.0.1:0", strings.TrimPrefix(b.srv.URL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		f.backends = append(f.backends, b)
		f.proxies = append(f.proxies, px)
		f.urls = append(f.urls, "http://"+px.Addr())
		f.beatOn[i] = true
	}
	t.Cleanup(func() {
		close(f.stop)
		f.wg.Wait()
		f.front.Close()
		a.g.Close()
		for i := range f.backends {
			f.proxies[i].Close()
			f.backends[i].srv.Close()
		}
	})

	// Announce everyone, then heartbeat every shard on a short cadence.
	for i := 0; i < n; i++ {
		f.announceOnce(t, i, f.epochOf(i))
		f.wg.Add(1)
		go func(i int) {
			defer f.wg.Done()
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-f.stop:
					return
				case <-tick.C:
					if !f.beating(i) {
						continue
					}
					body := fmt.Sprintf(`{"url":%q,"epoch":%d}`, f.urls[i], f.epochOf(i))
					resp, err := http.Post(f.front.URL+"/v1/announce", "application/json", strings.NewReader(body))
					if err == nil {
						resp.Body.Close()
					}
				}
			}
		}(i)
	}
	return f
}

// fleetHealth reads /healthz's backend availability counts.
func (f *leasedFleet) fleetHealth(t *testing.T) (backends, available int) {
	t.Helper()
	resp, err := http.Get(f.front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Backends  int `json:"backends"`
		Available int `json:"available"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.Backends, h.Available
}

func (f *leasedFleet) metrics(t *testing.T) gateway.Snapshot {
	t.Helper()
	resp, err := http.Get(f.front.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s gateway.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// The tentpole acceptance: an announce-assembled 3-shard fleet under
// sustained traffic takes a network partition on one shard and loses
// nothing — the victim's lease expires and it leaves the ring, every
// healthy request keeps succeeding (bounded by the per-attempt deadline
// while the blackhole is fresh), and after the network heals the victim
// rejoins, but takes traffic only once it serves the fleet's committed
// content.
func TestFleetSelfHealsThroughPartition(t *testing.T) {
	cfg := gateway.Config{
		VirtualNodes:    64,
		MaxRetries:      2,
		FailThreshold:   3,
		EjectFor:        400 * time.Millisecond,
		LeaseTTL:        600 * time.Millisecond,
		SuspectAfter:    200 * time.Millisecond,
		RampWindows:     2,
		SweepInterval:   50 * time.Millisecond,
		AttemptTimeout:  250 * time.Millisecond,
		RetryBackoff:    time.Millisecond,
		RetryBackoffMax: 50 * time.Millisecond,
	}
	f := newLeasedFleet(t, 3, cfg)
	if n, avail := f.fleetHealth(t); n != 3 || avail != 3 {
		t.Fatalf("fleet after announces: %d/%d available", avail, n)
	}

	// Sustained traffic: every request must succeed for the whole test.
	var reqs, fails atomic.Int64
	trafficStop := make(chan struct{})
	var traffic sync.WaitGroup
	for w := 0; w < 4; w++ {
		traffic.Add(1)
		go func(w int) {
			defer traffic.Done()
			for i := 0; ; i++ {
				select {
				case <-trafficStop:
					return
				default:
				}
				resp, body := postDetect(t, f.front, sceneBody("patrol", w*10_000+i%50))
				reqs.Add(1)
				if resp.StatusCode != http.StatusOK {
					fails.Add(1)
					t.Errorf("healthy request failed: %d %s", resp.StatusCode, body)
				}
			}
		}(w)
	}
	time.Sleep(300 * time.Millisecond) // warm: all shards serving

	// Partition shard 0: its proxy blackholes traffic (accepts, never
	// answers — the nastiest failure) and its heartbeats stop reaching the
	// gateway.
	const victim = 0
	f.setBeat(victim, false)
	f.proxies[victim].SetFault(chaos.NetBlackhole)

	// The lease expires and the victim leaves the ring.
	waitFor(t, 5*time.Second, "victim lease expiry", func() bool {
		_, avail := f.fleetHealth(t)
		return avail == 2 && f.metrics(t).LeaseExpirations >= 1
	})

	// While the fleet runs 2-wide, publish a model reload: the committed
	// epoch moves off the partitioned shard's stale content.
	resp, err := http.Post(f.front.URL+"/v1/models/reload", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload during partition: %d", resp.StatusCode)
	}
	committed := f.metrics(t).CommittedEpoch
	if committed < 2 {
		t.Fatalf("committed epoch %d after reload, want >= 2", committed)
	}

	// Heal the network. The victim re-announces with its stale epoch: it
	// gets a warming lease but is NOT routable until it serves the
	// committed content.
	f.proxies[victim].Heal()
	out := f.announceOnce(t, victim, f.epochOf(victim))
	if out["state"] != "warming" {
		t.Fatalf("stale rejoin state = %v, want warming (committed=%d, victim epoch=%d)",
			out["state"], committed, f.epochOf(victim))
	}
	if _, avail := f.fleetHealth(t); avail != 2 {
		t.Fatal("epoch-stale rejoiner counted as available")
	}

	// The shard catches up (reloads its models) and heartbeats the new
	// epoch: now it is on the ring, ramps, and serves again.
	reloadBackend(t, f.backends[victim])
	out = f.announceOnce(t, victim, f.epochOf(victim))
	if s := out["state"]; s != "warming" && s != "active" {
		t.Fatalf("converged rejoin state = %v, want warming/active", s)
	}
	f.setBeat(victim, true)
	waitFor(t, 5*time.Second, "victim readmission", func() bool {
		_, avail := f.fleetHealth(t)
		return avail == 3
	})
	served := f.backends[victim].detectCount()
	waitFor(t, 5*time.Second, "victim serving again", func() bool {
		return f.backends[victim].detectCount() > served
	})

	close(trafficStop)
	traffic.Wait()
	if fails.Load() != 0 {
		t.Fatalf("%d of %d requests failed across the partition", fails.Load(), reqs.Load())
	}
	snap := f.metrics(t)
	if snap.Failed != 0 {
		t.Fatalf("gateway counted %d failed requests", snap.Failed)
	}
	if snap.Rejoins < 1 {
		t.Fatalf("rejoins = %d, want >= 1", snap.Rejoins)
	}
	t.Logf("partition run: %d requests, retries=%d expirations=%d rejoins=%d committed=%d",
		reqs.Load(), snap.Retries, snap.LeaseExpirations, snap.Rejoins, snap.CommittedEpoch)
}

// reloadBackend reloads a fake backend directly — the shard-local half of
// catching up to a fleet publish it missed.
func reloadBackend(t *testing.T, b *fakeBackend) {
	t.Helper()
	resp, err := http.Post(b.srv.URL+"/v1/models/reload", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// A flapping shard (fails every request, never dies) cannot amplify into a
// retry storm: failover retries are bounded by the token-bucket budget,
// and requests beyond it fail fast with the shard's own error.
func TestFlappingShardBoundedByRetryBudget(t *testing.T) {
	cfg := gateway.Config{
		VirtualNodes:     64,
		MaxRetries:       1,
		RetryBudgetRate:  1e-9, // effectively no refill within the test
		RetryBudgetBurst: 3,
	}
	flapper := newFakeBackend("flapper")
	healthy := newFakeBackend("healthy")
	flapper.forceStatus(http.StatusServiceUnavailable) // plain 503: down-class
	a, front := newTestApp(t, cfg, flapper, healthy)

	okCount, failCount := 0, 0
	for i := 0; i < 40; i++ {
		resp, _ := postDetect(t, front, sceneBody("patrol", i))
		if resp.StatusCode == http.StatusOK {
			okCount++
		} else {
			failCount++
		}
	}
	snap := a.g.Snapshot()
	if snap.Retries > 3 {
		t.Fatalf("%d failover retries escaped a burst-3 budget", snap.Retries)
	}
	if snap.RetryBudgetExhausted == 0 || failCount == 0 {
		t.Fatalf("budget never exhausted: counter=%d failed=%d", snap.RetryBudgetExhausted, failCount)
	}
	if okCount == 0 {
		t.Fatal("no request succeeded at all — keys never landed on the healthy shard")
	}
	t.Logf("budget run: ok=%d failed=%d retries=%d exhausted=%d", okCount, failCount, snap.Retries, snap.RetryBudgetExhausted)
}

// An overloaded shard's Retry-After header paces the failover: the second
// attempt waits min(Retry-After, RetryBackoffMax) instead of re-landing
// the work immediately.
func TestGatewayFailoverHonorsRetryAfter(t *testing.T) {
	cfg := passiveCfg()
	cfg.FailThreshold = 0 // keep the 429ing shard in rotation
	cfg.RetryBackoff = time.Millisecond
	cfg.RetryBackoffMax = 150 * time.Millisecond
	b1 := newFakeBackend("b1")
	b2 := newFakeBackend("b2")
	_, front := newTestApp(t, cfg, b1, b2)

	// Find this body's owner, then overload it.
	body := sceneBody("patrol", 424242)
	resp, _ := postDetect(t, front, body)
	owner := resp.Header.Get("X-Itask-Shard")
	for _, b := range []*fakeBackend{b1, b2} {
		if b.srv.URL == owner {
			b.forceStatus(http.StatusTooManyRequests) // sends Retry-After: 1
		}
	}

	start := time.Now()
	resp, out := postDetect(t, front, body)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover response: %d %s", resp.StatusCode, out)
	}
	if got := resp.Header.Get("X-Itask-Shard"); got == owner {
		t.Fatalf("still served by the overloaded owner %s", got)
	}
	if resp.Header.Get("X-Itask-Attempts") != "2" {
		t.Fatalf("attempts = %s, want 2", resp.Header.Get("X-Itask-Attempts"))
	}
	if elapsed < 150*time.Millisecond {
		t.Fatalf("failover took %v, want >= the capped Retry-After (150ms)", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("failover took %v: the 1s hint must be capped at 150ms", elapsed)
	}
}

// The announce endpoint's own contract: bad URLs rejected, leases-off
// gateways refuse, graceful leave removes the member exactly once.
func TestAnnounceEndpoint(t *testing.T) {
	cfg := passiveCfg()
	cfg.LeaseTTL = time.Minute
	cfg.RampWindows = 1
	b := newFakeBackend("b")
	a, front := newTestApp(t, cfg, b)

	post := func(body string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(front.URL+"/v1/announce", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(out)
	}

	if resp, out := post(`{"url":"not a url"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad url accepted: %d %s", resp.StatusCode, out)
	}
	if resp, out := post(`{"url":"ftp://x"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-http scheme accepted: %d %s", resp.StatusCode, out)
	}

	// A live announce joins, on the ring at once (nothing committed yet).
	shard := newFakeBackend("announced")
	defer shard.srv.Close()
	resp, out := post(fmt.Sprintf(`{"url":%q,"epoch":1,"capacity":2}`, shard.srv.URL))
	if resp.StatusCode != http.StatusOK || !strings.Contains(out, `"active"`) {
		t.Fatalf("announce: %d %s", resp.StatusCode, out)
	}
	if _, avail := healthOf(t, front); avail != 2 {
		t.Fatalf("available = %d after announce, want 2", avail)
	}

	// Graceful leave via DELETE; second leave 404s.
	req, _ := http.NewRequest(http.MethodDelete, front.URL+"/v1/announce?url="+shard.srv.URL, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("leave: %d", dresp.StatusCode)
	}
	if dresp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("double leave: %d, want 404", dresp.StatusCode)
	}
	if a.g.Snapshot().GracefulLeaves != 1 {
		t.Fatal("graceful leave not counted")
	}

	// A leases-off gateway refuses announces outright.
	offApp, offFront := newTestApp(t, passiveCfg(), newFakeBackend("static"))
	_ = offApp
	resp2, err := http.Post(offFront.URL+"/v1/announce", "application/json",
		strings.NewReader(fmt.Sprintf(`{"url":%q}`, shard.srv.URL)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotImplemented {
		t.Fatalf("leases-off announce: %d, want 501", resp2.StatusCode)
	}
}

func healthOf(t *testing.T, front *httptest.Server) (backends, available int) {
	t.Helper()
	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Backends  int `json:"backends"`
		Available int `json:"available"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.Backends, h.Available
}
