package gateway_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"itask/internal/gateway"
	"itask/internal/member"
	"itask/internal/serve"
)

// testClock is a manually advanced membership clock shared with the
// gateway, so lease-timing tests never sleep.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock { return &testClock{t: time.Unix(1_000_000, 0)} }
func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}
func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// leaseConfig is a membership-enabled gateway with the background prober
// and sweeper effectively inert (tests drive SweepMembership directly via
// the injected clock).
func leaseConfig(clk *testClock) gateway.Config {
	return gateway.Config{
		VirtualNodes:  64,
		MaxRetries:    1,
		FailThreshold: 1,
		EjectFor:      time.Minute,
		LeaseTTL:      time.Second,
		SuspectAfter:  400 * time.Millisecond,
		RampWindows:   2,
		SweepInterval: time.Hour,
		Clock:         clk.now,
	}
}

func nodesOf(g *gateway.Gateway) map[string]bool {
	out := map[string]bool{}
	for _, id := range g.Nodes() {
		out[id] = true
	}
	return out
}

// The membership lifecycle as routing sees it: an announced member becomes
// routable (warming, ramping to active on renewals), turns suspect but
// stays routable when heartbeats pause, expires off the ring when the
// lease runs out — after which no request ever routes to it — and rejoins
// with a fresh lease on re-announce.
func TestLeaseLifecycleOnRing(t *testing.T) {
	clk := newTestClock()
	g := newTestGateway(t, leaseConfig(clk), newFakeNode("static"))
	n2 := newFakeNode("leased")

	e, err := g.Announce(n2, member.Meta{Addr: "http://leased"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.State != member.StateWarming || e.Weight != 0.5 {
		t.Fatalf("fresh announce at %v/%g, want warming/0.5", e.State, e.Weight)
	}
	if !nodesOf(g)["leased"] {
		t.Fatal("warming member missing from ring")
	}

	// One renewal completes the 2-window ramp.
	if e, err = g.Renew("leased", 0); err != nil || e.State != member.StateActive || e.Weight != 1 {
		t.Fatalf("renewal: %+v err=%v, want active/1", e, err)
	}

	// Heartbeats stop: suspect past SuspectAfter (still routable), expired
	// past LeaseTTL (off the ring).
	clk.advance(500 * time.Millisecond)
	g.SweepMembership()
	if !nodesOf(g)["leased"] {
		t.Fatal("suspect member must stay routable")
	}
	clk.advance(600 * time.Millisecond)
	g.SweepMembership()
	if nodesOf(g)["leased"] {
		t.Fatal("expired member still on the ring")
	}
	if _, err := g.Renew("leased", 0); !errors.Is(err, member.ErrUnknown) {
		t.Fatalf("renew of expired lease: %v, want ErrUnknown", err)
	}

	// Nothing routes to the expired member, ever.
	for i := 0; i < 200; i++ {
		info, err := g.Execute(context.Background(), gateway.Key{Digest: uint64(i), HasDigest: true},
			func(context.Context, gateway.Node, bool) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if info.Node != "static" {
			t.Fatalf("key %d routed to %s after expiry", i, info.Node)
		}
	}

	// Rejoin: fresh lease, fresh ramp, counted.
	if e, err = g.Announce(n2, member.Meta{Addr: "http://leased"}, 0); err != nil || e.State != member.StateWarming {
		t.Fatalf("rejoin: %+v err=%v", e, err)
	}
	if !nodesOf(g)["leased"] {
		t.Fatal("rejoined member missing from ring")
	}
	snap := g.Snapshot()
	// The static seed holds no lease; the refused renewal of the expired
	// lease is not a renewal.
	if snap.LeasesGranted != 2 || snap.LeaseRenewals != 1 || snap.LeaseExpirations != 1 || snap.Rejoins != 1 {
		t.Fatalf("lease counters: granted=%d renewals=%d expired=%d rejoins=%d",
			snap.LeasesGranted, snap.LeaseRenewals, snap.LeaseExpirations, snap.Rejoins)
	}
	var leased *gateway.NodeStatus
	for i := range snap.Nodes {
		if snap.Nodes[i].ID == "leased" {
			leased = &snap.Nodes[i]
		}
	}
	if leased == nil || leased.State != "warming" || leased.Weight != 0.5 {
		t.Fatalf("snapshot status: %+v, want warming/0.5", leased)
	}
}

// Graceful leave takes the member off the ring immediately and exactly
// once; a re-announce afterwards is a rejoin.
func TestGracefulLeave(t *testing.T) {
	clk := newTestClock()
	g := newTestGateway(t, leaseConfig(clk), newFakeNode("static"))
	n2 := newFakeNode("leased")
	if _, err := g.Announce(n2, member.Meta{}, 0); err != nil {
		t.Fatal(err)
	}
	if !g.Leave("leased") {
		t.Fatal("leave of a live member reported false")
	}
	if g.Leave("leased") {
		t.Fatal("double leave reported true")
	}
	if nodesOf(g)["leased"] {
		t.Fatal("left member still on the ring")
	}
	// A left member never "expires" on top of its leave.
	clk.advance(time.Hour)
	g.SweepMembership()
	snap := g.Snapshot()
	if snap.GracefulLeaves != 1 || snap.LeaseExpirations != 0 {
		t.Fatalf("leave counters: leaves=%d expirations=%d", snap.GracefulLeaves, snap.LeaseExpirations)
	}
	if _, err := g.Announce(n2, member.Meta{}, 0); err != nil {
		t.Fatal(err)
	}
	if g.Snapshot().Rejoins != 1 {
		t.Fatal("re-announce after leave not counted as rejoin")
	}
}

// statusOf is one member's row in the gateway snapshot.
func statusOf(t *testing.T, g *gateway.Gateway, id string) gateway.NodeStatus {
	t.Helper()
	for _, ns := range g.Snapshot().Nodes {
		if ns.ID == id {
			return ns
		}
	}
	t.Fatalf("%s missing from snapshot", id)
	return gateway.NodeStatus{}
}

// Whether an announced member serves is one comparison, its last report
// against the committed epoch. A member announcing the committed content —
// a restart, or a new shard loaded from the fleet's models — is on the ring
// at once, with no publish. One announcing other content holds a warming
// lease but is off the ring (weight 0, lagging) until it reports the
// committed epoch: by its own heartbeat, or through the next publish, which
// reaches it because its lease is live.
func TestAnnounceGatedOnCommittedEpoch(t *testing.T) {
	clk := newTestClock()
	g := newTestGateway(t, leaseConfig(clk), newFakeNode("static"))
	ctx := context.Background()

	// Commit epoch 2 (fakeNodes start at v1, epoch 1).
	if ep, err := g.Propagate(ctx, "v2"); err != nil || ep != 2 {
		t.Fatalf("propagate: epoch=%d err=%v", ep, err)
	}

	fresh := newFakeNode("fresh")
	fresh.setEpochAndVersion(2, "v2")
	if e, err := g.Announce(fresh, member.Meta{}, 2); err != nil || e.State != member.StateWarming || !nodesOf(g)["fresh"] {
		t.Fatalf("announce at the committed epoch: %+v err=%v, on ring %v; want warming on the ring", e, err, nodesOf(g)["fresh"])
	}

	stale := newFakeNode("stale") // epoch 1, committed 2
	e, err := g.Announce(stale, member.Meta{}, 1)
	if err != nil || e.State != member.StateWarming {
		t.Fatalf("stale announce: %+v err=%v, want a warming lease", e, err)
	}
	if ns := statusOf(t, g, "stale"); nodesOf(g)["stale"] || !ns.Lagging || ns.Weight != 0 {
		t.Fatalf("stale member: on ring %v, status %+v; want off the ring at weight 0, lagging", nodesOf(g)["stale"], ns)
	}

	// The shard catches up and says so on its next heartbeat.
	if _, err = g.Renew("stale", 2); err != nil || !nodesOf(g)["stale"] {
		t.Fatalf("converged renew: err=%v, on ring %v", err, nodesOf(g)["stale"])
	}

	// It loads other bytes on its own and is off the ring again, until the
	// next publish reaches it and brings it back with the rest.
	stale.setEpochAndVersion(7, "v7")
	if _, err = g.Renew("stale", 7); err != nil || nodesOf(g)["stale"] {
		t.Fatalf("renew at other content: err=%v, on ring %v", err, nodesOf(g)["stale"])
	}
	if ep, err := g.Propagate(ctx, "v3"); err != nil || ep != 3 {
		t.Fatalf("propagate: epoch=%d err=%v", ep, err)
	}
	if !nodesOf(g)["stale"] || stale.currentVersion() != "v3" {
		t.Fatalf("after the publish: on ring %v at %s, want on the ring at v3", nodesOf(g)["stale"], stale.currentVersion())
	}
}

// A report readmits a member but never extends its lease: only the shard's
// own heartbeat vouches for its liveness. A member off the ring for its
// epoch that the prober then sees serving the committed content is back on
// the ring, and still expires LeaseTTL after its last renewal.
func TestConvergeDoesNotExtendLease(t *testing.T) {
	clk := newTestClock()
	cfg := leaseConfig(clk)
	cfg.ProbeInterval, cfg.ProbeTimeout = 5*time.Millisecond, 100*time.Millisecond
	g := newTestGateway(t, cfg, newFakeNode("static"))
	if ep, err := g.Propagate(context.Background(), "v2"); err != nil || ep != 2 {
		t.Fatalf("propagate: epoch=%d err=%v", ep, err)
	}
	late := newFakeNode("late")
	if _, err := g.Announce(late, member.Meta{}, 1); err != nil || nodesOf(g)["late"] {
		t.Fatalf("announce behind: err=%v, on ring %v", err, nodesOf(g)["late"])
	}
	late.setEpochAndVersion(2, "v2")
	for deadline := time.Now().Add(2 * time.Second); !nodesOf(g)["late"]; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the prober never readmitted the converged member")
		}
	}
	clk.advance(1100 * time.Millisecond)
	g.SweepMembership()
	if ns := statusOf(t, g, "late"); nodesOf(g)["late"] || ns.State != "expired" {
		t.Fatalf("converged-but-unrenewed member survived: %+v", ns)
	}
}

// A shard that restarts inside its lease from an older models directory
// re-announces other content than the committed epoch. Its one stored epoch
// is its last report, so it is off the ring and reported lagging from that
// announce on, through every heartbeat (and probe) that still says epoch 1,
// until it reports the committed content — and no client reads the stale
// version from it meanwhile.
func TestStaleReannounceIsNotRoutable(t *testing.T) {
	for _, probe := range []time.Duration{0, 5 * time.Millisecond} {
		t.Run(fmt.Sprintf("probe=%v", probe), func(t *testing.T) {
			cfg := leaseConfig(newTestClock())
			cfg.RampWindows = 1
			cfg.ProbeInterval, cfg.ProbeTimeout = probe, 100*time.Millisecond
			g := newTestGateway(t, cfg)
			a, b := newFakeNode("shard-a"), newFakeNode("shard-b")
			ctx := context.Background()
			for _, n := range []*fakeNode{a, b} {
				if _, err := g.Announce(n, member.Meta{}, 1); err != nil {
					t.Fatal(err)
				}
			}
			if ep, err := g.Propagate(ctx, "v2"); err != nil || ep != 2 {
				t.Fatalf("propagate: epoch=%d err=%v", ep, err)
			}
			for _, id := range []string{"shard-a", "shard-b"} {
				if e, err := g.Renew(id, 2); err != nil || e.State != member.StateActive {
					t.Fatalf("heartbeat of %s at the committed epoch: %+v err=%v", id, e, err)
				}
			}

			status := func() gateway.NodeStatus { return statusOf(t, g, "shard-b") }
			checkStale := func(when string) {
				t.Helper()
				if nodesOf(g)["shard-b"] {
					t.Fatalf("%s: stale shard-b is on the ring", when)
				}
				if ns := status(); !ns.Lagging || ns.Epoch != 1 {
					t.Fatalf("%s: shard-b status %+v, want lagging at its reported epoch 1", when, ns)
				}
			}

			b.setEpochAndVersion(1, "v1") // restarted from the old models
			if _, err := g.Announce(b, member.Meta{}, 1); err != nil {
				t.Fatalf("stale re-announce: %v", err)
			}
			checkStale("after the re-announce")
			for i := 0; i < 5; i++ {
				if _, err := g.Renew("shard-b", 1); err != nil {
					t.Fatal(err)
				}
				time.Sleep(2 * probe) // let the prober, if any, have its say too
				checkStale(fmt.Sprintf("after stale heartbeat %d", i))
			}
			for i := 0; i < 64; i++ {
				res, err := g.Detect(ctx, serve.Request{Task: "patrol", Image: img(i)})
				if err != nil || res.Model != "v2" || res.Node != "shard-a" {
					t.Fatalf("detect %d beside a stale member = {%s %s %v}, want v2 from shard-a", i, res.Node, res.Model, err)
				}
			}

			b.setEpochAndVersion(2, "v2") // it reloads and says so
			if _, err := g.Renew("shard-b", 2); err != nil {
				t.Fatal(err)
			}
			if ns := status(); !nodesOf(g)["shard-b"] || ns.Lagging || ns.Epoch != 2 {
				t.Fatalf("caught-up shard-b not readmitted: on ring %v, status %+v", nodesOf(g)["shard-b"], ns)
			}
		})
	}
}

// Fleet-level churn bound: a leased member joining an n-node fleet takes
// over only ~K/(n+1) of the key space once fully ramped, and every key it
// does not own keeps its owner through join, leave, and rejoin.
func TestMembershipChurnBound(t *testing.T) {
	clk := newTestClock()
	cfg := leaseConfig(clk)
	cfg.RampWindows = 1 // full weight on announce: isolates join churn
	const n, K = 5, 4000
	statics := make([]gateway.Node, n)
	for i := range statics {
		statics[i] = newFakeNode(fmt.Sprintf("node-%02d", i))
	}
	g := newTestGateway(t, cfg, statics...)

	ownerOf := func(k int) string {
		info, err := g.Execute(context.Background(), gateway.Key{Digest: uint64(k)*2654435761 + 1, HasDigest: true},
			func(context.Context, gateway.Node, bool) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		return info.Node
	}
	before := make([]string, K)
	for k := range before {
		before[k] = ownerOf(k)
	}

	joiner := newFakeNode("joiner")
	if _, err := g.Announce(joiner, member.Meta{}, 1); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for k := 0; k < K; k++ {
		after := ownerOf(k)
		if after != before[k] {
			moved++
			if after != "joiner" {
				t.Fatalf("key %d moved between old members (%s -> %s) on join", k, before[k], after)
			}
		}
	}
	limit := K * 16 / (10 * (n + 1)) // 1.6 × fair share
	if moved == 0 || moved > limit {
		t.Fatalf("join remapped %d of %d keys, want (0, %d]", moved, K, limit)
	}

	// Leave and rejoin restore the exact same routing: placement depends
	// only on the member id, not join order or lease history.
	g.Leave("joiner")
	for k := 0; k < K; k++ {
		if got := ownerOf(k); got != before[k] {
			t.Fatalf("key %d owned by %s after leave, was %s", k, got, before[k])
		}
	}
	if _, err := g.Announce(joiner, member.Meta{}, 1); err != nil {
		t.Fatal(err)
	}
	remapped := 0
	for k := 0; k < K; k++ {
		if ownerOf(k) != before[k] {
			remapped++
		}
	}
	if remapped != moved {
		t.Fatalf("rejoin remapped %d keys, join had remapped %d — placement not id-stable", remapped, moved)
	}
}

// Retry budget: with a flapping shard and the budget nearly dry, failover
// retries are bounded by the bucket depth and the excess requests fail
// with ErrRetryBudget instead of amplifying onto the survivors.
func TestRetryBudgetBoundsFailover(t *testing.T) {
	cfg := gateway.Config{
		VirtualNodes:     64,
		MaxRetries:       2,
		RetryBudgetRate:  1e-9, // no refill within the test
		RetryBudgetBurst: 3,
	}
	g := newTestGateway(t, cfg, newFakeNode("a"), newFakeNode("b"))

	flaky := errors.New("flap")
	var budgetFails int
	for i := 0; i < 20; i++ {
		_, err := g.Execute(context.Background(), gateway.Key{Digest: uint64(i), HasDigest: true},
			func(_ context.Context, n gateway.Node, _ bool) error {
				if n.ID() == "a" {
					return &gateway.NodeError{Class: gateway.ClassNodeDown, Err: flaky}
				}
				return nil
			})
		if errors.Is(err, gateway.ErrRetryBudget) {
			if !errors.Is(err, flaky) {
				t.Fatalf("budget error lost the shard's last error: %v", err)
			}
			budgetFails++
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	snap := g.Snapshot()
	if snap.Retries > 3 {
		t.Fatalf("%d failover retries, budget burst was 3", snap.Retries)
	}
	if budgetFails == 0 || snap.RetryBudgetExhausted == 0 {
		t.Fatalf("budget never reported exhaustion: fails=%d counter=%d", budgetFails, snap.RetryBudgetExhausted)
	}
}

// Retry-After honor: an overloaded shard's advertised horizon (capped at
// RetryBackoffMax) paces the failover instead of immediately re-landing
// the work one ring position over.
func TestFailoverHonorsRetryAfter(t *testing.T) {
	cfg := gateway.Config{
		VirtualNodes:    64,
		MaxRetries:      1,
		RetryBackoff:    time.Millisecond,
		RetryBackoffMax: 150 * time.Millisecond,
	}
	g := newTestGateway(t, cfg, newFakeNode("a"), newFakeNode("b"))

	start := time.Now()
	var served string
	info, err := g.Execute(context.Background(), gateway.Key{Digest: 7, HasDigest: true},
		func(_ context.Context, n gateway.Node, _ bool) error {
			if served == "" {
				served = n.ID()
				return &gateway.NodeError{Class: gateway.ClassOverload, RetryAfter: time.Second, Err: errors.New("429")}
			}
			return nil
		})
	elapsed := time.Since(start)
	if err != nil || info.Attempts != 2 {
		t.Fatalf("failover: attempts=%d err=%v", info.Attempts, err)
	}
	if elapsed < 150*time.Millisecond {
		t.Fatalf("failover after %v, want >= capped Retry-After (150ms)", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("failover after %v: the 1s hint must be capped at 150ms", elapsed)
	}
}

// Per-attempt deadline: a blackholed shard (accepts, never answers) costs
// a request one AttemptTimeout slice, then the attempt reclassifies as a
// node failure and fails over — while a request whose own deadline expired
// is not retried at all.
func TestAttemptTimeoutFailsOver(t *testing.T) {
	cfg := gateway.Config{
		VirtualNodes:   64,
		MaxRetries:     1,
		FailThreshold:  1,
		EjectFor:       time.Minute,
		AttemptTimeout: 40 * time.Millisecond,
	}
	g := newTestGateway(t, cfg, newFakeNode("a"), newFakeNode("b"))

	var first atomic.Value
	do := func(ctx context.Context, n gateway.Node, _ bool) error {
		if first.CompareAndSwap(nil, n.ID()) || first.Load() == n.ID() {
			<-ctx.Done() // blackhole: hold the request until its slice expires
			return ctx.Err()
		}
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	info, err := g.Execute(ctx, gateway.Key{Digest: 7, HasDigest: true}, do)
	if err != nil || info.Attempts != 2 {
		t.Fatalf("blackholed attempt: attempts=%d err=%v", info.Attempts, err)
	}
	// The blackholed shard took a down-class failure and (FailThreshold 1)
	// is now ejected.
	for _, ns := range g.Snapshot().Nodes {
		if ns.ID == first.Load().(string) && !ns.Ejected {
			t.Fatalf("blackholed shard %s not ejected: %+v", ns.ID, ns)
		}
	}

	// A request that spent its own deadline is the caller's loss: no
	// failover, the ctx error comes back.
	sctx, scancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer scancel()
	_, err = g.Execute(sctx, gateway.Key{Digest: 7, HasDigest: true},
		func(ctx context.Context, _ gateway.Node, _ bool) error {
			<-ctx.Done()
			return ctx.Err()
		})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("spent-deadline request: %v, want DeadlineExceeded", err)
	}
}

// Announce/renew/leave/sweep/route under full concurrency: the -race
// hammer for the membership path. A static core member keeps the ring
// non-empty, so every request must succeed.
func TestMembershipConcurrentChurn(t *testing.T) {
	cfg := gateway.Config{
		VirtualNodes:  32,
		MaxRetries:    1,
		LeaseTTL:      60 * time.Millisecond,
		SuspectAfter:  20 * time.Millisecond,
		RampWindows:   2,
		SweepInterval: 5 * time.Millisecond,
	}
	g := newTestGateway(t, cfg, newFakeNode("core"))

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Three leased members renew on a heartbeat, but flicker: each
	// periodically pauses long enough to expire, then re-announces.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("leased-%d", i)
			n := newFakeNode(id)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := g.Renew(id, 1); err != nil {
					if _, aerr := g.Announce(n, member.Meta{}, 1); aerr != nil {
						t.Errorf("announce %s: %v", id, aerr)
						return
					}
				}
				d := time.Duration(rand.N(15)) * time.Millisecond
				if rand.N(10) == 0 {
					d = 100 * time.Millisecond // miss the lease: expire + rejoin
				}
				select {
				case <-stop:
					return
				case <-time.After(d):
				}
			}
		}(i)
	}

	// One member churns through announce/leave cycles.
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := newFakeNode("churner")
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := g.Announce(n, member.Meta{}, 1); err != nil {
				t.Errorf("churner announce: %v", err)
				return
			}
			time.Sleep(time.Duration(rand.N(5)) * time.Millisecond)
			g.Leave("churner")
		}
	}()

	// Executors hammer the routing path throughout.
	var routed atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, err := g.Execute(context.Background(),
					gateway.Key{Digest: uint64(w*1_000_003 + i), HasDigest: true},
					func(context.Context, gateway.Node, bool) error { return nil })
				if err != nil {
					t.Errorf("execute: %v", err)
					return
				}
				routed.Add(1)
			}
		}(w)
	}

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()
	if routed.Load() == 0 {
		t.Fatal("hammer routed nothing")
	}
	snap := g.Snapshot()
	if snap.Failed != 0 {
		t.Fatalf("%d requests failed during churn", snap.Failed)
	}
	t.Logf("hammer: routed=%d leases=%d renewals=%d expirations=%d rejoins=%d leaves=%d",
		routed.Load(), snap.LeasesGranted, snap.LeaseRenewals, snap.LeaseExpirations, snap.Rejoins, snap.GracefulLeaves)
}
