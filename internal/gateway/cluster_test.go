package gateway_test

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"itask/internal/gateway"
	"itask/internal/serve"
	"itask/internal/tensor"
)

// img builds a small deterministic image with a content digest unique to i.
func img(i int) *tensor.Tensor {
	t := tensor.New(3, 8, 8)
	for j := range t.Data {
		t.Data[j] = float32(i*31+j) * 0.5
	}
	return t
}

// fakeNode is an in-memory shard implementing every gateway node interface:
// detection (attributing results to its current model version), health
// reads with route epochs, and publishes. Its epoch names its content, as a
// real shard's does: version "vN" is epoch N, whatever the history behind
// it. A publish takes applyDelay, then activates before it answers, as
// every real node's does.
type fakeNode struct {
	id string

	applyDelay time.Duration
	applyErr   error
	applyAs    string // non-empty: a publish activates this version instead (other bytes on disk)

	mu      sync.Mutex
	down    bool
	gate    chan struct{} // non-nil: Detect blocks on it (holds in-flight)
	version string
	epoch   uint64
	applied int // Publish calls, failed ones included
	served  int
}

func newFakeNode(id string) *fakeNode {
	return &fakeNode{id: id, version: "v1", epoch: 1}
}

func (n *fakeNode) ID() string { return n.id }

func (n *fakeNode) Detect(_ context.Context, _ serve.Request) (serve.Result, error) {
	n.mu.Lock()
	down, gate := n.down, n.gate
	n.mu.Unlock()
	if down {
		return serve.Result{}, &gateway.NodeError{Class: gateway.ClassNodeDown, Err: errors.New("connection refused")}
	}
	if gate != nil {
		<-gate
	}
	n.mu.Lock()
	n.served++
	res := serve.Result{Model: n.version, BatchSize: 1}
	n.mu.Unlock()
	return res, nil
}

func (n *fakeNode) setDown(d bool) {
	n.mu.Lock()
	n.down = d
	n.mu.Unlock()
}

// Health reports the epoch even while the node is down: the fake's epoch is
// its registry's, which a refused probe does not change.
func (n *fakeNode) Health(context.Context) (uint64, bool, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return n.epoch, true, errors.New("probe: connection refused")
	}
	return n.epoch, true, nil
}

func (n *fakeNode) setEpochAndVersion(ep uint64, v string) {
	n.mu.Lock()
	n.epoch, n.version = ep, v
	n.mu.Unlock()
}

func (n *fakeNode) Publish(_ context.Context, payload any) (uint64, error) {
	n.mu.Lock()
	n.applied++
	err := n.applyErr
	n.mu.Unlock()
	if err != nil {
		return 0, err
	}
	time.Sleep(n.applyDelay)
	n.mu.Lock()
	defer n.mu.Unlock()
	n.version = cmp.Or(n.applyAs, payload.(string))
	n.epoch, _ = strconv.ParseUint(strings.TrimPrefix(n.version, "v"), 10, 64)
	return n.epoch, nil
}

func (n *fakeNode) applyCalls() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.applied
}

func (n *fakeNode) currentVersion() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.version
}

// passiveConfig is a gateway with health and failover on but the background
// prober off, so tests control time.
func passiveConfig() gateway.Config {
	return gateway.Config{
		VirtualNodes:  64,
		MaxRetries:    1,
		FailThreshold: 1,
		EjectFor:      time.Minute,
	}
}

func newTestGateway(t *testing.T, cfg gateway.Config, nodes ...gateway.Node) *gateway.Gateway {
	t.Helper()
	g, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	for _, n := range nodes {
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// The tentpole E2E property: with N=3 shards under concurrent traffic, one
// shard dying mid-run costs healthy keys nothing — its keys rehash to ring
// successors, requests caught mid-death fail over, and not one client
// request fails. Keys owned by the surviving shards never move.
func TestClusterRehashOnNodeDeath(t *testing.T) {
	a, b, c := newFakeNode("shard-a"), newFakeNode("shard-b"), newFakeNode("shard-c")
	g := newTestGateway(t, passiveConfig(), a, b, c)

	imgs := make([]*tensor.Tensor, 240)
	for i := range imgs {
		imgs[i] = img(i)
	}
	ctx := context.Background()

	// Baseline owner of every key across the healthy fleet.
	ownerBefore := make([]string, len(imgs))
	perNode := map[string]int{}
	for i, im := range imgs {
		res, err := g.Detect(ctx, serve.Request{Task: "patrol", Image: im})
		if err != nil {
			t.Fatal(err)
		}
		ownerBefore[i] = res.Node
		perNode[res.Node]++
	}
	if len(perNode) != 3 {
		t.Fatalf("keys landed on %d shards, want 3: %v", len(perNode), perNode)
	}

	// Concurrent storm; shard-b dies mid-run.
	var (
		failures atomic.Int64
		firstErr atomic.Value
		stop     = make(chan struct{})
		wg       sync.WaitGroup
	)
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
				if _, err := g.Detect(ctx, serve.Request{Task: "patrol", Image: imgs[(i*4+w)%len(imgs)]}); err != nil {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, err)
				}
			}
		}(w)
	}
	time.Sleep(10 * time.Millisecond)
	b.setDown(true)
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed across the node death (first: %v)", n, firstErr.Load())
	}

	// After the death: shard-b's keys rehash to survivors, everyone else's
	// owner is untouched.
	for i, im := range imgs {
		res, err := g.Detect(ctx, serve.Request{Task: "patrol", Image: im})
		if err != nil {
			t.Fatal(err)
		}
		if ownerBefore[i] == "shard-b" {
			if res.Node == "shard-b" {
				t.Fatalf("key %d still routed to the dead shard", i)
			}
		} else if res.Node != ownerBefore[i] {
			t.Fatalf("healthy key %d moved %s -> %s on an unrelated death", i, ownerBefore[i], res.Node)
		}
	}
	snap := g.Snapshot()
	if snap.Ejections == 0 {
		t.Fatal("dead shard was never ejected")
	}
	if snap.Retries == 0 {
		t.Fatal("no request fail-over was recorded despite a mid-run death")
	}
	if snap.Failed != 0 {
		t.Fatalf("gateway recorded %d exhausted requests", snap.Failed)
	}
}

// A zipf-hot digest crosses HotThreshold and spreads over HotReplicas
// shards; when one replica dies, the digest stays routable with zero failed
// requests (the replica set re-forms over the survivors).
func TestHotKeyReplicationSurvivesEjection(t *testing.T) {
	a, b, c := newFakeNode("shard-a"), newFakeNode("shard-b"), newFakeNode("shard-c")
	cfg := passiveConfig()
	cfg.HotThreshold = 8
	cfg.HotReplicas = 2
	g := newTestGateway(t, cfg, a, b, c)

	hot := img(7)
	ctx := context.Background()
	counts := map[string]int{}
	for i := 0; i < 120; i++ {
		res, err := g.Detect(ctx, serve.Request{Task: "patrol", Image: hot})
		if err != nil {
			t.Fatal(err)
		}
		counts[res.Node]++
	}
	if len(counts) != 2 {
		t.Fatalf("hot digest served by %d shards, want exactly its 2 replicas: %v", len(counts), counts)
	}
	for id, n := range counts {
		if n < 30 {
			t.Fatalf("replica %s served only %d/120 — p2c is not spreading: %v", id, n, counts)
		}
	}
	if snap := g.Snapshot(); snap.HotRouted < 100 {
		t.Fatalf("HotRouted = %d, want >= 100", snap.HotRouted)
	}

	// Kill one replica: the hot key must stay routable with no failures.
	var victim *fakeNode
	for _, n := range []*fakeNode{a, b, c} {
		if _, isReplica := counts[n.id]; isReplica {
			victim = n
			break
		}
	}
	victim.setDown(true)
	after := map[string]int{}
	for i := 0; i < 60; i++ {
		res, err := g.Detect(ctx, serve.Request{Task: "patrol", Image: hot})
		if err != nil {
			t.Fatalf("hot request %d failed after replica ejection: %v", i, err)
		}
		after[res.Node]++
	}
	if after[victim.id] != 0 {
		t.Fatalf("ejected replica %s still served %d hot requests", victim.id, after[victim.id])
	}
	if len(after) == 0 {
		t.Fatal("hot digest unroutable after replica ejection")
	}
}

// Requests without a digestable image route by task key: one task's
// undigestable traffic stays on one shard (batch-lane locality), and the
// gateway counts the fallback.
func TestTaskKeyFallback(t *testing.T) {
	g := newTestGateway(t, passiveConfig(),
		newFakeNode("shard-a"), newFakeNode("shard-b"), newFakeNode("shard-c"))
	ctx := context.Background()
	for _, task := range []string{"patrol", "inspect", "survey", "count"} {
		first := ""
		for i := 0; i < 8; i++ {
			res, err := g.Detect(ctx, serve.Request{Task: task})
			if err != nil {
				t.Fatal(err)
			}
			if first == "" {
				first = res.Node
			} else if res.Node != first {
				t.Fatalf("task %q flapped shards %s -> %s", task, first, res.Node)
			}
		}
	}
	if snap := g.Snapshot(); snap.TaskRouted != 32 {
		t.Fatalf("TaskRouted = %d, want 32", snap.TaskRouted)
	}
}

// Bounded load: concurrent arrivals for one (cold) key spill past the
// saturated owner to ring successors instead of queueing behind it.
func TestBoundedLoadSpill(t *testing.T) {
	a, b, c := newFakeNode("shard-a"), newFakeNode("shard-b"), newFakeNode("shard-c")
	cfg := passiveConfig()
	cfg.LoadFactor = 1.25
	g := newTestGateway(t, cfg, a, b, c)
	ctx := context.Background()

	key := img(99)
	res, err := g.Detect(ctx, serve.Request{Task: "patrol", Image: key})
	if err != nil {
		t.Fatal(err)
	}
	owner := map[string]*fakeNode{"shard-a": a, "shard-b": b, "shard-c": c}[res.Node]

	// Saturate the owner: its next request blocks holding in-flight load.
	gate := make(chan struct{})
	owner.mu.Lock()
	owner.gate = gate
	owner.mu.Unlock()

	done := make(chan string, 4)
	for i := 0; i < 4; i++ {
		go func() {
			r, err := g.Detect(ctx, serve.Request{Task: "patrol", Image: key})
			if err != nil {
				done <- "error"
				return
			}
			done <- r.Node
		}()
		time.Sleep(2 * time.Millisecond) // let each arrival observe the last one's load
	}
	close(gate)
	served := map[string]int{}
	for i := 0; i < 4; i++ {
		served[<-done]++
	}
	if served["error"] != 0 {
		t.Fatalf("spilled requests failed: %v", served)
	}
	if len(served) < 2 {
		t.Fatalf("all concurrent arrivals queued on the saturated owner: %v", served)
	}
	if snap := g.Snapshot(); snap.Spills == 0 {
		t.Fatal("no bounded-load spill recorded")
	}
}

// A fleet past the stack-backed size of Execute's lists (8) fails over the
// same way: with one of 12 shards up and no ejection, a request walks its
// preference order, trying each shard at most once, until the live one
// answers; with ejection on, the shards a walk found down drop out of later
// requests' orders, so a second pass answers at the first attempt.
func TestFailoverPastSmallFleet(t *testing.T) {
	const fleet, live = 12, "shard-07"
	for _, eject := range []bool{false, true} {
		cfg := gateway.Config{VirtualNodes: 64, MaxRetries: fleet - 1}
		if eject {
			cfg.FailThreshold, cfg.EjectFor = 1, time.Minute
		}
		nodes := make([]gateway.Node, fleet)
		for i := range nodes {
			nodes[i] = newFakeNode(fmt.Sprintf("shard-%02d", i))
		}
		g := newTestGateway(t, cfg, nodes...)
		for pass := 0; pass < 2; pass++ {
			for d := uint64(0); d < 64; d++ {
				var tried []string
				info, err := g.Execute(context.Background(), gateway.Key{Digest: d, HasDigest: true}, func(_ context.Context, n gateway.Node, _ bool) error {
					tried = append(tried, n.ID())
					if n.ID() != live {
						return &gateway.NodeError{Class: gateway.ClassNodeDown, Err: errors.New("connection refused")}
					}
					return nil
				})
				if err != nil || info.Node != live || info.Attempts != len(tried) {
					t.Fatalf("eject %v, digest %d: (%+v, %v) after trying %v", eject, d, info, err, tried)
				}
				seen := map[string]bool{}
				for _, id := range tried {
					if seen[id] {
						t.Fatalf("eject %v, digest %d: %s tried twice in %v", eject, d, id, tried)
					}
					seen[id] = true
				}
				if eject && pass == 1 && len(tried) != 1 {
					t.Fatalf("digest %d tried %v after every down shard was ejected", d, tried)
				}
			}
		}
	}
}
