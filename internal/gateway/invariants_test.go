package gateway

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"itask/internal/member"
)

// invariants_test.go: the membership state machines — lease, epoch, ring —
// driven through random operation sequences from a seed, with the fleet's
// invariants checked after every step: the ring is exactly the live leases
// whose last report is the committed epoch (or every live lease, before any
// commit). A failure prints the sequence's seed
// and its operations so far; put the seed in replaySeed to run it alone.

// replaySeed, when non-zero, runs that one sequence instead of fresh ones.
const replaySeed uint64 = 0

// simNode is a shard with a settable route epoch — the identity of the
// content it serves — and an apply that can fail. The simulation is
// single-threaded, so it needs no lock.
type simNode struct {
	id        string
	epoch     uint64
	failApply bool
}

func (n *simNode) ID() string                                   { return n.id }
func (n *simNode) Health(context.Context) (uint64, bool, error) { return n.epoch, true, nil }
func (n *simNode) Publish(_ context.Context, payload any) (uint64, error) {
	if n.failApply {
		return 0, errors.New("apply refused")
	}
	n.epoch = payload.(uint64) // every apply loads the same bytes
	return n.epoch, nil
}

func TestMembershipInvariantsRandomSequences(t *testing.T) {
	seen := map[string]int{}
	if replaySeed != 0 {
		runMembershipSequence(t, replaySeed, seen)
		return
	}
	base := uint64(time.Now().UnixNano())
	t.Logf("base seed %d (sequence i runs seed base+i)", base)
	for i := uint64(0); i < 1000 && !t.Failed(); i++ {
		runMembershipSequence(t, base+i, seen)
	}
	// The sequences must have reached the states the invariants are about.
	for _, what := range []string{"suspect", "expired", "left", "lagging with a live lease", "ramp grew",
		"publish taken", "publish reached a lagging member", "restart", "local publish"} {
		if seen[what] == 0 {
			t.Errorf("base seed %d: 1000 sequences never produced: %s (saw %v)", base, what, seen)
		}
	}
}

func runMembershipSequence(t *testing.T, seed uint64, seen map[string]int) {
	rng := rand.New(rand.NewPCG(seed, 14))
	now := time.Unix(1_000_000, 0)
	const vnodes = 16
	g, err := New(Config{
		VirtualNodes:  vnodes,
		LeaseTTL:      time.Second,
		RampWindows:   1 + rng.IntN(4),
		SweepInterval: time.Hour, // the test sweeps by hand on its own clock
		Clock:         func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	nodes := make([]*simNode, 1+rng.IntN(5))
	static := map[string]bool{}
	reported := map[string]uint64{} // the model: each announced id's last report
	var committed uint64            // the model: the last publish's epoch
	var trace []string
	logf := func(format string, args ...any) { trace = append(trace, fmt.Sprintf(format, args...)) }
	for i := range nodes {
		nodes[i] = &simNode{id: fmt.Sprintf("m%d", i)}
	}
	if rng.IntN(4) == 0 { // sometimes a hand-configured seed rides along
		if err := g.AddNode(nodes[0]); err != nil {
			t.Fatal(err)
		}
		static["m0"], reported["m0"] = true, 0
		logf("static m0")
	}
	// near picks an epoch at, above or below the committed one; fresh one
	// no member serves.
	near := func() uint64 {
		return max(committed+uint64(rng.IntN(3)), 1) - 1
	}
	fresh := func() uint64 {
		e := committed
		for _, m := range nodes {
			e = max(e, m.epoch)
		}
		return e + 1
	}
	onRing := func(id string) bool {
		_, on := g.ring.Load().byID[id]
		return on
	}
	lagging := func(id string) bool { return committed != 0 && reported[id] != committed }
	points := map[string]int{} // ring points at the previous step, per incarnation

	for step := 0; step < 24; step++ {
		n := nodes[rng.IntN(len(nodes))]
		switch op := rng.IntN(12); {
		case op < 2:
			ep := near()
			_, err := g.Announce(n, member.Meta{}, ep)
			logf("announce %s@%d: %v", n.id, ep, err)
			if err == nil {
				reported[n.id] = ep
			}
		case op < 5:
			ep := near()
			_, err := g.Renew(n.id, ep)
			logf("renew %s@%d: %v", n.id, ep, err)
			if err == nil {
				reported[n.id] = ep
			} else if !errors.Is(err, member.ErrUnknown) {
				t.Fatalf("seed %d: renew: %v", seed, err)
			}
		case op < 6:
			logf("leave %s: %v", n.id, g.Leave(n.id))
		case op < 8:
			d := time.Duration(rng.IntN(600)) * time.Millisecond
			now = now.Add(d)
			g.SweepMembership()
			logf("advance %v + sweep", d)
		case op < 9:
			n.epoch = near()
			g.mu.Lock()
			live := g.membersLocked(member.State.Live)
			g.mu.Unlock()
			g.probeAll()
			logf("%s moves to epoch %d; probe sweep", n.id, n.epoch)
			for _, s := range live {
				reported[s.id] = s.node.(*simNode).epoch
			}
		case op < 10:
			// Restart: n's lease lapses while every other member renews at
			// its last report, then n comes back from the fleet's models.
			if static[n.id] {
				logf("restart %s: static, skipped", n.id)
				break
			}
			now = now.Add(600 * time.Millisecond)
			for id, ep := range reported {
				if id != n.id {
					g.Renew(id, ep) // ErrUnknown for a member that is gone: nothing to renew
				}
			}
			now = now.Add(600 * time.Millisecond)
			g.SweepMembership()
			if s := g.members[n.id]; s != nil && s.rec.State.Live() {
				t.Fatalf("seed %d: %s outlived its lease: %v", seed, n.id, s.rec.State)
			}
			delete(points, n.id) // a new incarnation ramps afresh
			n.epoch = committed
			_, err := g.Announce(n, member.Meta{}, n.epoch)
			logf("restart %s at the committed epoch %d: %v", n.id, n.epoch, err)
			if err != nil {
				t.Fatalf("seed %d: restart: %v", seed, err)
			}
			reported[n.id] = n.epoch
			if !onRing(n.id) {
				t.Fatalf("seed %d: %s restarted at the committed epoch %d is off the ring\n%s", seed, n.id, committed, strings.Join(trace, "\n"))
			}
			seen["restart"]++
		case op < 11:
			// Local publish: n loads bytes nobody else serves, with no fleet
			// publish, and says so on its heartbeat.
			n.epoch = fresh()
			_, err := g.Renew(n.id, n.epoch)
			logf("local publish on %s to %d: %v", n.id, n.epoch, err)
			if err == nil {
				reported[n.id] = n.epoch
				if committed != 0 {
					if onRing(n.id) {
						t.Fatalf("seed %d: %s serves other bytes than the committed %d and is on the ring\n%s", seed, n.id, committed, strings.Join(trace, "\n"))
					}
					seen["local publish"]++
				}
			}
		default:
			n.failApply = rng.IntN(3) == 0
			target := fresh()
			g.mu.Lock()
			targets := g.membersLocked(member.State.Live)
			g.mu.Unlock()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			ep, err := g.Propagate(ctx, target)
			cancel()
			logf("propagate to %d (%s fails: %v): epoch %d, %v", target, n.id, n.failApply, ep, err)
			if errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("seed %d: the publish ended on its context\n%s", seed, strings.Join(trace, "\n"))
			}
			took := false
			for _, s := range targets {
				if sn := s.node.(*simNode); !sn.failApply {
					if lagging(s.id) {
						seen["publish reached a lagging member"]++
					}
					reported[s.id] = target
					took = true
					seen["publish taken"]++
				}
			}
			if took {
				committed = target
			}
			n.failApply = false
		}

		// The invariants, from the public snapshot and the published ring.
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d: %s\n%s", seed, step, fmt.Sprintf(format, args...), strings.Join(trace, "\n"))
		}
		snap := g.Snapshot()
		rs := g.ring.Load()
		nowNanos := time.Now().UnixNano()
		leased := 0
		if snap.CommittedEpoch != committed {
			fail("committed epoch %d, the last publish took %d", snap.CommittedEpoch, committed)
		}
		for _, ns := range snap.Nodes {
			live := ns.State == "warming" || ns.State == "active" || ns.State == "suspect"
			seen[ns.State]++
			if live && ns.Lagging {
				seen["lagging with a live lease"]++
			}
			current := snap.CommittedEpoch == 0 || ns.Epoch == snap.CommittedEpoch
			want := live && current && !ns.Ejected
			g.mu.Lock()
			rule := g.routable(g.members[ns.ID], nowNanos)
			g.mu.Unlock()
			if on := onRing(ns.ID); on != want || rule != want || (ns.Weight > 0) != want {
				fail("%s: on ring %v, routable() %v, want %v from %+v at committed %d", ns.ID, on, rule, want, ns, snap.CommittedEpoch)
			}
			if ns.Lagging != (live && !current) {
				fail("%s: lagging %v in %+v at committed %d", ns.ID, ns.Lagging, ns, snap.CommittedEpoch)
			}
			if ns.Epoch != reported[ns.ID] {
				fail("%s: epoch %d, last report was %d", ns.ID, ns.Epoch, reported[ns.ID])
			}
			if ns.State == "expired" || ns.State == "left" {
				delete(points, ns.ID) // the next incarnation ramps afresh,
				delete(static, ns.ID) // and on a lease if it announces
			} else if !static[ns.ID] {
				leased++
			}
		}
		if len(rs.shards) > len(snap.Nodes) {
			fail("ring has %d members, the snapshot %d", len(rs.shards), len(snap.Nodes))
		}
		if got := int(snap.LeasesGranted) - int(snap.LeaseExpirations) - int(snap.GracefulLeaves); got != leased {
			fail("granted %d - expired %d - left %d = %d, but %d leased members are live",
				snap.LeasesGranted, snap.LeaseExpirations, snap.GracefulLeaves, got, leased)
		}
		// A member's points are a prefix of its full set and, within one
		// incarnation, only ever grow.
		have := map[string]map[uint64]bool{}
		for _, p := range rs.points {
			if have[p.s.id] == nil {
				have[p.s.id] = map[uint64]bool{}
			}
			have[p.s.id][p.hash] = true
		}
		for id, hashes := range have {
			k := len(hashes)
			for v := 0; v < k; v++ {
				if !hashes[vnodeHash(id, v)] {
					fail("%s: its %d ring points are not the first %d of its full set", id, k, k)
				}
			}
			if k < points[id] || k > vnodes {
				fail("%s: %d ring points after %d", id, k, points[id])
			}
			if points[id] > 0 && k > points[id] {
				seen["ramp grew"]++
			}
			points[id] = k
		}
	}
}
