package gateway

import (
	"context"
	"sync"
	"time"
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
//   - Active: a background loop probes every announced member (routable or
//     not) each ProbeInterval. A probe failure counts exactly like a
//     request failure (a quiet node can die without traffic noticing), a
//     probe success clears the count and lifts an ejection early. The same
//     sweep reads each member's route epoch and flags members behind the
//     cluster's committed epoch as lagging (see epoch.go) — a shard that
//     missed a publish must not serve old-version traffic. For a joining
//     member the observed epoch also drives convergence: the prober can
//     admit it to the ring as soon as it catches up, without waiting for
//     the member's own next heartbeat (the heartbeat still owns the lease —
//     prober observations never extend it).
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

// probeAll sweeps every announced member concurrently: one slow shard must
// not delay detection of the others. It walks the roster, not the ring, so
// epoch-gated joining members are probed too — that observation is what
// converges them.
func (g *Gateway) probeAll() {
	g.mu.Lock()
	shards := make([]*shard, 0, len(g.roster))
	for _, s := range g.roster {
		shards = append(shards, s)
	}
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

func (g *Gateway) probeOne(s *shard) {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ProbeTimeout)
	defer cancel()
	if pn, ok := s.node.(ProbeNode); ok {
		if err := pn.Probe(ctx); err != nil {
			s.failures.Add(1)
			g.noteDown(s)
		} else {
			s.consecFails.Store(0)
			s.ejectedUntil.Store(0) // a live answer lifts any ejection early
		}
	}
	if en, ok := s.node.(EpochNode); ok {
		ep, err := en.RouteEpoch(ctx)
		if err != nil {
			return
		}
		g.observeEpoch(s, ep)
	}
}

// observeEpoch records a member's observed route epoch: behind the
// committed epoch it is lagging (skipped by routing); caught up, a joining
// member converges onto the ring without waiting for its next heartbeat.
func (g *Gateway) observeEpoch(s *shard, ep uint64) {
	s.epoch.Store(ep)
	committed := g.committedEpoch.Load()
	lag := ep < committed
	if s.lagging.Swap(lag) != lag && lag {
		g.m[cEpochDrift].Add(1)
	}
	if lag {
		return
	}
	g.mu.Lock()
	if _, changed := g.tbl.Converge(s.id, ep, committed); changed {
		g.rebuildLocked()
	}
	g.mu.Unlock()
}
