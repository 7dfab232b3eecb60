package gateway_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"itask/internal/gateway"
	"itask/internal/serve"
)

// One member's apply is slow. Propagate must not return until that member
// has answered its publish; traffic keeps flowing throughout, and once
// Propagate has returned every answer is the new version.
func TestPropagateWaitsForSlowestMember(t *testing.T) {
	a, b, c := newFakeNode("shard-a"), newFakeNode("shard-b"), newFakeNode("shard-c")
	c.applyDelay = 30 * time.Millisecond
	g := newTestGateway(t, passiveConfig(), a, b, c)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := g.Detect(ctx, serve.Request{Task: "patrol", Image: img(i % 20)}); err != nil {
				t.Errorf("detect during propagation: %v", err)
				return
			}
		}
	}()

	start := time.Now()
	ep, err := g.Propagate(ctx, "v2")
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("Propagate: %v", err)
	}
	if ep != 2 || g.CommittedEpoch() != 2 {
		t.Fatalf("committed epoch = %d/%d, want 2", ep, g.CommittedEpoch())
	}
	if elapsed < 25*time.Millisecond {
		t.Fatalf("Propagate returned in %v — before shard-c's apply answered", elapsed)
	}
	for _, n := range []*fakeNode{a, b, c} {
		if got, _, _ := n.Health(ctx); got != ep {
			t.Fatalf("%s at epoch %d after propagation, want %d", n.id, got, ep)
		}
		if v := n.currentVersion(); v != "v2" {
			t.Fatalf("%s still serves %s after propagation", n.id, v)
		}
	}
	for i := 0; i < 60; i++ {
		res, err := g.Detect(ctx, serve.Request{Task: "patrol", Image: img(i)})
		if err != nil || res.Model != "v2" {
			t.Fatalf("post-propagation detect = {%s %s %v}, want v2", res.Node, res.Model, err)
		}
	}
	snap := g.Snapshot()
	if snap.Propagates != 1 || snap.CommittedEpoch != ep {
		t.Fatalf("snapshot propagation state = {%d %d}, want {1 %d}", snap.Propagates, snap.CommittedEpoch, ep)
	}
	for _, ns := range snap.Nodes {
		if ns.Lagging {
			t.Fatalf("%s still lagging after propagation", ns.ID)
		}
	}
}

// A member whose apply succeeds but answers other content than most of the
// fleet (its models directory holds other bytes) is named in Propagate's
// error at once, not when the context ends; it is lagging, and the rest
// serve the committed version.
func TestPropagateNamesDissentingMember(t *testing.T) {
	a, b, c := newFakeNode("shard-a"), newFakeNode("shard-b"), newFakeNode("shard-c")
	c.applyAs = "v3"
	g := newTestGateway(t, passiveConfig(), a, b, c)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	start := time.Now()
	ep, err := g.Propagate(ctx, "v2")
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Propagate took %v to give up on shard-c", elapsed)
	}
	if err == nil || !strings.Contains(err.Error(), "shard-c") || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Propagate err = %v, want one naming shard-c and not the context", err)
	}
	if ep != 2 || g.CommittedEpoch() != 2 {
		t.Fatalf("committed epoch = %d/%d, want 2", ep, g.CommittedEpoch())
	}
	for _, ns := range g.Snapshot().Nodes {
		if ns.Lagging != (ns.ID == "shard-c") || (ns.Weight == 0) != ns.Lagging {
			t.Fatalf("%s lagging = %v at weight %g", ns.ID, ns.Lagging, ns.Weight)
		}
	}
	for i := 0; i < 60; i++ {
		res, err := g.Detect(ctx, serve.Request{Task: "patrol", Image: img(i)})
		if err != nil || res.Node == "shard-c" || res.Model != "v2" {
			t.Fatalf("detect beside a lagging shard-c = {%s %s %v}, want v2 from a or b", res.Node, res.Model, err)
		}
	}
}

// The committed epoch is the answer most applies gave, whatever its value
// or its members' ids; a tie goes to the answer of the lowest member id.
func TestPropagateCommitsThePluralityAnswer(t *testing.T) {
	for _, tc := range []struct {
		name      string
		nodes     int
		dissenter string
		want      uint64
	}{
		{"the lowest id dissents, two against one", 3, "shard-0", 2},
		{"one against one", 2, "shard-0", 9},
		{"one against one, the other way", 2, "shard-1", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var nodes []gateway.Node
			for i := 0; i < tc.nodes; i++ {
				n := newFakeNode(fmt.Sprintf("shard-%d", i))
				if n.id == tc.dissenter {
					n.applyAs = "v9"
				}
				nodes = append(nodes, n)
			}
			g := newTestGateway(t, passiveConfig(), nodes...)
			ep, err := g.Propagate(context.Background(), "v2")
			if ep != tc.want || err == nil {
				t.Fatalf("Propagate = (%d, %v), want (%d, an error naming the other)", ep, err, tc.want)
			}
			for _, ns := range g.Snapshot().Nodes {
				if named := strings.Contains(err.Error(), ns.ID); ns.Lagging != (ns.Epoch != tc.want) || named != ns.Lagging {
					t.Fatalf("%s at epoch %d: lagging %v, named %v in %v", ns.ID, ns.Epoch, ns.Lagging, named, err)
				}
			}
		})
	}
}

// A publish without a payload is refused at the gateway before any member is
// touched: nobody's Publish runs, nobody activates, routing is untouched.
func TestPropagateInvalidChangeTouchesNoMember(t *testing.T) {
	a, b, c := newFakeNode("shard-a"), newFakeNode("shard-b"), newFakeNode("shard-c")
	g := newTestGateway(t, passiveConfig(), a, b, c)
	ctx := context.Background()

	if _, err := g.Propagate(ctx, nil); err == nil {
		t.Fatal("Propagate accepted a publish without a payload")
	}
	for _, n := range []*fakeNode{a, b, c} {
		if calls := n.applyCalls(); calls != 0 {
			t.Fatalf("%s saw %d Publish calls for a publish refused at the gateway", n.id, calls)
		}
		if v := n.currentVersion(); v != "v1" {
			t.Fatalf("%s activated %s despite the refused publish", n.id, v)
		}
	}
	if g.CommittedEpoch() != 0 {
		t.Fatalf("CommittedEpoch advanced to %d on a refused publish", g.CommittedEpoch())
	}
	// Traffic still serves v1 everywhere.
	res, err := g.Detect(ctx, serve.Request{Task: "patrol", Image: img(3)})
	if err != nil || res.Model != "v1" {
		t.Fatalf("post-refusal detect = {%v %v}, want v1", res.Model, err)
	}
}

// A publish every member fails to apply commits nothing: no epoch to advance
// to, nobody lagging, the apply errors returned.
func TestPropagateAllAppliesFailCommitsNothing(t *testing.T) {
	a, b := newFakeNode("shard-a"), newFakeNode("shard-b")
	a.applyErr, b.applyErr = errors.New("disk full"), errors.New("disk full")
	g := newTestGateway(t, passiveConfig(), a, b)
	ep, err := g.Propagate(context.Background(), "v2")
	if err == nil || ep != 0 || g.CommittedEpoch() != 0 {
		t.Fatalf("Propagate = (%d, %v), committed %d; want (0, error), 0", ep, err, g.CommittedEpoch())
	}
	for _, ns := range g.Snapshot().Nodes {
		if ns.Lagging {
			t.Fatalf("%s lagging behind an epoch nobody reached", ns.ID)
		}
	}
}

// A member whose apply fails is out of sync with a publish the rest of the
// fleet took: it ends lagging and excluded from routing — clients never
// read the old version from it — then rejoins once the prober observes it
// serving the committed content.
func TestFailedApplyMarksLaggingAndRecovers(t *testing.T) {
	a, b, c := newFakeNode("shard-a"), newFakeNode("shard-b"), newFakeNode("shard-c")
	b.applyErr = errors.New("registry wedged")
	cfg := passiveConfig()
	cfg.ProbeInterval = 5 * time.Millisecond
	cfg.ProbeTimeout = 100 * time.Millisecond
	g := newTestGateway(t, cfg, a, b, c)
	ctx := context.Background()

	ep, err := g.Propagate(ctx, "v2")
	if err == nil || !strings.Contains(err.Error(), "shard-b") {
		t.Fatalf("Propagate err = %v, want one naming shard-b", err)
	}
	if ep != 2 || g.CommittedEpoch() != 2 {
		t.Fatalf("committed epoch = %d/%d, want 2", ep, g.CommittedEpoch())
	}

	// The lagging member must not serve: every key routes to a or c, and
	// every answer is the committed version.
	for i := 0; i < 120; i++ {
		res, err := g.Detect(ctx, serve.Request{Task: "patrol", Image: img(i)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Node == "shard-b" {
			t.Fatal("lagging shard-b served a request")
		}
		if res.Model != "v2" {
			t.Fatalf("stale version %s served after commit", res.Model)
		}
	}
	found := false
	for _, ns := range g.Snapshot().Nodes {
		if ns.ID == "shard-b" {
			found = true
			if !ns.Lagging {
				t.Fatal("shard-b not marked lagging in snapshot")
			}
		}
	}
	if !found {
		t.Fatal("shard-b missing from snapshot")
	}

	// The wedged shard recovers (loads the committed content); the prober
	// notices and routing readmits it.
	b.setEpochAndVersion(ep, "v2")
	deadline := time.Now().Add(2 * time.Second)
	for {
		lagging := false
		for _, ns := range g.Snapshot().Nodes {
			if ns.ID == "shard-b" {
				lagging = ns.Lagging
			}
		}
		if !lagging {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard-b still lagging after catching up to the committed epoch")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A fleet with a node that cannot publish refuses the publish up front
// rather than half-applying it.
func TestPropagateUnsupportedNode(t *testing.T) {
	g := newTestGateway(t, passiveConfig(), newFakeNode("shard-a"), bareNode("shard-x"))
	_, err := g.Propagate(context.Background(), "v2")
	if !errors.Is(err, gateway.ErrUnsupportedChange) {
		t.Fatalf("err = %v, want ErrUnsupportedChange", err)
	}
}

type bareNode string

func (n bareNode) ID() string { return string(n) }
