package gateway

import (
	"context"
	"sync"
	"time"

	"itask/internal/member"
)

// health.go: per-member failure accounting and the active prober. Health is
// two-channel:
//
//   - Passive: Execute classifies every node error; ClassNodeDown failures
//     increment the member's consecutive-failure count and eject it at
//     FailThreshold. Ejection is how a dead node's keys rehash — routing
//     skips ejected members, so their key ranges fall through to ring
//     successors — while the in-flight requests that discovered the death
//     retry on the successor and succeed.
//   - Active: a background loop probes every live member (on the ring or
//     not) each ProbeInterval, one HealthNode.Health call per member. A
//     probe failure counts exactly like a request failure (a quiet node can
//     die without traffic noticing), a probe success clears the count and
//     lifts an ejection early. The same answer carries the member's route
//     epoch, recorded as its last report (Gateway.report), so a shard that
//     changed its content drops off the ring and a lagging one is admitted
//     as soon as it serves the committed content again, without waiting for
//     its own next heartbeat (the heartbeat still owns the lease —
//     observations never extend it).
//
// Ejection is deliberately time-bounded (EjectFor): with no prober, a
// passively ejected member rejoins on expiry and the next failure re-ejects
// it, giving a crash-looping node a duty cycle instead of permanent exile.
// Lease expiry (gateway.go's sweeper) is the third, coarser channel: a
// member that stops renewing leaves the ring entirely, ejected or not.

// noteDown records one down-class failure; at FailThreshold consecutive
// failures the member is ejected for EjectFor.
func (g *Gateway) noteDown(s *shard) {
	if g.cfg.FailThreshold <= 0 {
		return
	}
	if int(s.consecFails.Add(1)) < g.cfg.FailThreshold {
		return
	}
	s.consecFails.Store(0)
	until := time.Now().Add(g.cfg.EjectFor).UnixNano()
	if s.ejectedUntil.Swap(until) <= time.Now().UnixNano() {
		// Count a fresh ejection, not an extension of a running one.
		g.m[cEjections].Add(1)
	}
}

func (g *Gateway) proberLoop() {
	defer g.done.Done()
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			g.probeAll()
		}
	}
}

// probeAll sweeps every live member concurrently: one slow shard must not
// delay detection of the others. It walks the records, not the ring, so
// members off the ring for their epoch are probed too — that observation is
// what readmits them.
func (g *Gateway) probeAll() {
	g.mu.Lock()
	shards := g.membersLocked(member.State.Live)
	g.mu.Unlock()
	var wg sync.WaitGroup
	for _, s := range shards {
		wg.Add(1)
		go func(s *shard) {
			defer wg.Done()
			g.probeOne(s)
		}(s)
	}
	wg.Wait()
}

// probeOne asks s once how it is: the verdict counts toward ejection or
// lifts one, and an epoch in the answer is s's last report.
func (g *Gateway) probeOne(s *shard) {
	hn, ok := s.node.(HealthNode)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ProbeTimeout)
	defer cancel()
	epoch, hasEpoch, down := hn.Health(ctx)
	if down != nil {
		s.failures.Add(1)
		g.noteDown(s)
	} else {
		s.consecFails.Store(0)
		s.ejectedUntil.Store(0) // a live answer lifts any ejection early
	}
	if hasEpoch {
		g.report(s, epoch)
	}
}
