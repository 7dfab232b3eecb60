package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"itask/internal/fair"
	"itask/internal/rcache"
	"itask/internal/tensor"
)

// pending is one admitted request waiting in the queue or executing.
type pending struct {
	image    *tensor.Tensor
	task     string
	tenant   string
	deadline time.Time
	enq      time.Time
	// variant is the model variant admission routed the request to (the
	// fallback when the preferred variant's breaker was open); the worker
	// executes it there.
	variant string
	// row is the tenant's ledger row, resolved once — by the flight join for
	// a follower, by admitToQueue before the enqueue otherwise — so the
	// request's admit and its outcome land in the same row.
	row *tenantRow
	// key is the content-addressed cache key (haveKey guards validity; the
	// fast path computes it only when the cache or coalescing is enabled).
	// key.Artifact doubles as the memoized routing decision.
	key     rcache.Key
	haveKey bool
	// flight is non-nil on a singleflight leader; its terminal delivery
	// resolves the flight exactly once (see deliver).
	flight *flight
	// degraded is the non-empty degradation reason when admission rerouted
	// this request to the fallback variant (see Result.Degraded).
	degraded string
	// probeKey, when non-empty, is the breaker key whose half-open probe
	// slot this request holds. The slot is consumed once the request's
	// execution outcome reaches the breaker; until then, an enqueue failure
	// or shedding before invoke must release it (health.releaseProbe), or
	// the breaker stays half-open with a probe that never runs and denies
	// all traffic forever.
	probeKey string
	// cancelled is set by Detect when its context ends before the outcome
	// arrives; execute sheds cancelled requests instead of running them.
	cancelled atomic.Bool
	done      chan Outcome // buffered(1): delivery never blocks a worker
}

// state is the mutex-guarded request queue of the Server: one weighted-fair
// queue of admitted requests, whatever their variant and task. A worker
// takes one request at a time — fair.Queue.Pop interleaves tenants by
// deficit round robin — so a tenant flooding the server gets at most its
// weighted share of executions while other tenants have work waiting, no
// matter how many tasks its traffic spans.
type state struct {
	mu     sync.Mutex
	cond   *sync.Cond // signalled when a request is queued or the server closes
	q      *fair.Queue[*pending]
	closed bool

	workerWG sync.WaitGroup
}

func newState(weights map[string]int) *state {
	st := &state{q: fair.NewQueue[*pending](weights)}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// tenantQueueCapLocked is the weighted share of QueueCap tenant may occupy.
// The share is computed against the weights of every tenant that is either
// configured (present in Config.TenantWeights) or currently occupying queue
// slots — so a tenant alone on an unconfigured server uses the whole queue
// (work-conserving), while on a server with configured tenants each one's
// slots are reserved even across its idle moments and a flooding tenant can
// never push the queue to a state that rejects the others. The floor of one
// request keeps a tiny-share tenant able to queue at all. Caller holds
// st.mu.
func (s *Server) tenantQueueCapLocked(tenant string) int {
	q := s.st.q
	total := q.Weight(tenant)
	for t := range s.cfg.TenantWeights {
		if t != tenant {
			total += q.Weight(t)
		}
	}
	q.EachTenant(func(t string, _ int) {
		if _, configured := s.cfg.TenantWeights[t]; !configured && t != tenant {
			total += q.Weight(t)
		}
	})
	return max(1, s.cfg.QueueCap*q.Weight(tenant)/total)
}

// enqueue queues p for the next free worker, unless the server is draining,
// the queue is at QueueCap or p's tenant is at its share of it.
func (s *Server) enqueue(p *pending) error {
	st := s.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		s.m.inc(cRejectedClosed)
		return ErrShuttingDown
	}
	if st.q.Len() >= s.cfg.QueueCap {
		s.m.count(cRejectedFull, p.row)
		return ErrQueueFull
	}
	if st.q.TenantLen(p.tenant) >= s.tenantQueueCapLocked(p.tenant) {
		s.m.count(cRejectedShare, p.row)
		return ErrQueueFull
	}
	st.q.Push(p.tenant, p)
	st.cond.Signal()
	return nil
}

// take blocks until a request is queued and dequeues it, or returns
// ok=false once the server is closed and drained. Taking is where fairness
// bites, and only now does the request stop counting against QueueCap.
func (s *Server) take() (p *pending, ok bool) {
	st := s.st
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		if p, ok := st.q.Pop(); ok {
			return p, true
		}
		if st.closed {
			return nil, false
		}
		st.cond.Wait()
	}
}
