package serve

import (
	"sync"

	"itask/internal/rcache"
)

// Singleflight coalescing: concurrent requests that share a cache key
// (same routed artifact version, task, and image content) collapse into one
// backend execution. The first request to miss the cache becomes the
// *leader* and rides the normal admission path (breaker consult, queue,
// worker); requests arriving while the leader is in flight become
// *followers* and wait on the leader's outcome without ever touching the
// admission queue — duplicate suppression before queue admission.
//
// Failure semantics are deliberately conservative:
//
//   - A failed leader never fails its followers. Whatever killed the leader
//     (poison content, a panic, queue-full, a missed deadline, a cancelled
//     context) is the leader's outcome alone; each follower is re-admitted
//     through the full fresh path (route, breaker, enqueue) and earns its
//     own outcome. A follower re-execution never joins another flight, so
//     every request executes at most twice.
//   - A degraded (fallback-served) leader result IS shared with followers —
//     it is a valid detection for the same (task, image) and is flagged
//     Degraded — but it is never cached under the task-specific key (see
//     deliver), so degradation cannot outlive the breaker that caused it.
//
// The table is striped by digest like the result cache, so flights on
// distinct images never contend on a shared lock.

// flight collects the followers waiting on one leader's outcome.
type flight struct {
	followers []*pending
}

// flightStripe is one lock stripe of the flight table, padded so adjacent
// stripes never share a cache line.
type flightStripe struct {
	mu sync.Mutex
	m  map[rcache.Key]*flight
	_  [64]byte
}

// flightGroup is the striped singleflight table.
type flightGroup struct {
	stripes [16]flightStripe
}

func newFlightGroup() *flightGroup {
	g := &flightGroup{}
	for i := range g.stripes {
		g.stripes[i].m = map[rcache.Key]*flight{}
	}
	return g
}

func (g *flightGroup) stripe(key rcache.Key) *flightStripe {
	return &g.stripes[key.Digest%uint64(len(g.stripes))]
}

// join attaches p to the flight for key. When no flight exists, p becomes
// the leader of a new one (isLeader=true); the leader's terminal delivery
// must resolve the flight exactly once. Otherwise p is registered as a
// follower and must not be enqueued — its outcome arrives via resolve. A
// follower is accepted into m here, under the lock resolve takes, so its
// tenant row is in place before the leader can settle it.
func (g *flightGroup) join(key rcache.Key, p *pending, m *metrics) (f *flight, isLeader bool) {
	st := g.stripe(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	if f := st.m[key]; f != nil {
		p.row = m.tenant(p.tenant)
		m.count(cAccepted, p.row)
		f.followers = append(f.followers, p)
		return f, false
	}
	f = &flight{}
	st.m[key] = f
	return f, true
}

// resolve detaches the flight for key and returns its followers for
// delivery. A request joining after resolve finds no flight and becomes a
// fresh leader, so no follower can attach to an already-resolved flight.
func (g *flightGroup) resolve(key rcache.Key, f *flight) []*pending {
	st := g.stripe(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.m[key] == f {
		delete(st.m, key)
	}
	followers := f.followers
	f.followers = nil
	return followers
}
