package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"itask/internal/fair"
	"itask/internal/rcache"
	"itask/internal/tensor"
)

// pending is one admitted request waiting in a lane or executing.
type pending struct {
	image    *tensor.Tensor
	task     string
	tenant   string
	deadline time.Time
	enq      time.Time
	// row is the tenant's ledger row, resolved once — by the flight join for
	// a follower, by admitLane before the enqueue otherwise — so the
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
	// probeKey, when non-empty, is the lane key whose half-open probe slot
	// this request holds. The slot is consumed once the request's first
	// execution outcome reaches the breaker; until then, an enqueue failure
	// or shedding before invoke must release it (health.releaseProbe), or
	// the lane stays half-open with a probe that never runs and denies all
	// traffic forever. Written at admission, then touched only by the one
	// worker executing the request's batch.
	probeKey string
	// cancelled is set by Detect when its context ends before the outcome
	// arrives; execute sheds cancelled requests instead of running them.
	cancelled atomic.Bool
	// attempts counts quarantine re-executions, bounded by RetryBudget.
	// Only the single worker goroutine running the request's batch touches
	// it (quarantine recursion stays on that worker's stack).
	attempts int
	done     chan Outcome // buffered(1): delivery never blocks a worker
}

// lane coalesces admitted requests that share a (variant, task) key. The
// key includes the task (not just the model variant) because the pipeline's
// post-inference knowledge-graph filtering is task-specific: two tasks
// served by the same generalist still decode against different priors.
//
// Inside a lane, requests wait in a weighted-fair queue of per-tenant
// subqueues rather than one FIFO: when a worker takes a batch, fair.Queue
// interleaves tenants by deficit round robin, so a tenant flooding the lane
// gets at most its weighted share of each batch's slots while other
// tenants have work waiting.
type lane struct {
	variant string
	task    string
	q       *fair.Queue[*pending]
	// ready marks the lane as sitting in the state's ready list, waiting
	// for a worker to take a batch from it.
	ready bool
	// gen invalidates flush timers armed for a previous filling of this
	// lane: the worker taking a batch bumps it, so a stale time.AfterFunc
	// finds a different generation and does nothing.
	gen uint64
}

// state is the mutex-guarded queue/batcher core of the Server.
//
// The batcher is pull-model: admitted requests stay in their lane's fair
// queue until a worker takes a batch, so batch formation — the moment
// tenant interleaving happens — is as late as possible. (The previous
// design flushed lanes eagerly into per-batch dispatch goroutines blocked
// on a channel; the backlog then sat FIFO in blocked goroutines where no
// fairness policy could reach it.) A lane becomes "ready" when it holds a
// full batch, when its BatchDelay expires, or at shutdown; workers wait on
// cond for ready lanes and serve them in FIFO order.
type state struct {
	mu    sync.Mutex
	cond  *sync.Cond // signalled when a lane becomes ready or the server closes
	lanes map[string]*lane
	// readyQ is the FIFO of lanes with a batch ready to take. Lane-level
	// FIFO keeps cross-lane service fair too: a busy lane re-marks itself
	// at the tail, it cannot monopolize the workers.
	readyQ []*lane
	// queued counts admitted requests not yet taken by a worker; QueueCap
	// bounds it. queuedBy splits the same count per tenant for the
	// weighted queue-share guard (see Server.enqueue).
	queued   int
	queuedBy map[string]int
	closed   bool

	workerWG sync.WaitGroup
}

func newState() *state {
	st := &state{lanes: map[string]*lane{}, queuedBy: map[string]int{}}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// markReadyLocked puts ln on the ready list and wakes one worker. Caller
// holds st.mu.
func (st *state) markReadyLocked(ln *lane) {
	if ln.ready {
		return
	}
	ln.ready = true
	st.readyQ = append(st.readyQ, ln)
	st.cond.Signal()
}

// tenantQueueCapLocked is the weighted share of QueueCap tenant may occupy.
// The share is computed against the weights of every tenant that is either
// configured (present in Config.TenantWeights) or currently occupying queue
// slots — so a tenant alone on an unconfigured server uses the whole queue
// (work-conserving), while on a server with configured tenants each one's
// slots are reserved even across its idle moments and a flooding tenant can
// never push the queue to a state that rejects the others. The floor of one
// MaxBatch keeps a tiny-share tenant able to form a full batch. Caller
// holds st.mu.
func (s *Server) tenantQueueCapLocked(tenant string) int {
	st := s.st
	w := func(t string) int {
		if wt, ok := s.cfg.TenantWeights[t]; ok && wt > 0 {
			return wt
		}
		return fair.DefaultWeight
	}
	total := w(tenant)
	for t := range s.cfg.TenantWeights {
		if t != tenant {
			total += w(t)
		}
	}
	for t := range st.queuedBy {
		if _, configured := s.cfg.TenantWeights[t]; !configured && t != tenant {
			total += w(t)
		}
	}
	share := s.cfg.QueueCap * w(tenant) / total
	if share < s.cfg.MaxBatch {
		share = s.cfg.MaxBatch
	}
	if share > s.cfg.QueueCap {
		share = s.cfg.QueueCap
	}
	return share
}

// enqueue admits p into the lane for (variant, task), marking the lane
// ready for a worker when it holds a full batch (or BatchDelay is zero)
// and arming the BatchDelay flush timer when p is the lane's first
// occupant.
func (s *Server) enqueue(variant, task string, p *pending) error {
	st := s.st
	key := laneKey(variant, task)
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		s.m.inc(cRejectedClosed)
		return ErrShuttingDown
	}
	if st.queued >= s.cfg.QueueCap {
		st.mu.Unlock()
		s.m.count(cRejectedFull, p.row)
		return ErrQueueFull
	}
	if st.queuedBy[p.tenant] >= s.tenantQueueCapLocked(p.tenant) {
		st.mu.Unlock()
		s.m.count(cRejectedShare, p.row)
		return ErrQueueFull
	}
	st.queued++
	st.queuedBy[p.tenant]++
	ln := st.lanes[key]
	if ln == nil {
		ln = &lane{variant: variant, task: task, q: fair.NewQueue[*pending](s.cfg.TenantWeights)}
		st.lanes[key] = ln
	}
	wasEmpty := ln.q.Len() == 0
	ln.q.Push(p.tenant, p)
	switch {
	case ln.q.Len() >= s.cfg.MaxBatch || s.cfg.BatchDelay == 0:
		st.markReadyLocked(ln)
	case wasEmpty && !ln.ready:
		gen := ln.gen
		time.AfterFunc(s.cfg.BatchDelay, func() { s.flushLane(key, gen) })
	}
	st.mu.Unlock()
	return nil
}

// flushLane is the BatchDelay timer callback: it readies the lane if it
// still holds the generation the timer was armed for.
func (s *Server) flushLane(key string, gen uint64) {
	st := s.st
	st.mu.Lock()
	ln := st.lanes[key]
	if ln != nil && ln.gen == gen && !st.closed && ln.q.Len() > 0 {
		st.markReadyLocked(ln)
	}
	st.mu.Unlock()
}

// worker pulls batches from ready lanes until shutdown drains the last
// one. Taking a batch is where fairness bites: fair.Queue.PopMax
// interleaves the lane's tenants by deficit round robin, and only now do
// the taken requests stop counting against QueueCap. All shedding, panic
// isolation, quarantine, and breaker accounting happens in execute
// (exec.go).
func (s *Server) worker() {
	st := s.st
	defer st.workerWG.Done()
	st.mu.Lock()
	for {
		for len(st.readyQ) == 0 && !st.closed {
			st.cond.Wait()
		}
		if len(st.readyQ) == 0 {
			// Closed and fully drained.
			st.mu.Unlock()
			return
		}
		ln := st.readyQ[0]
		st.readyQ = st.readyQ[1:]
		ln.ready = false
		items := ln.q.PopMax(s.cfg.MaxBatch)
		ln.gen++
		st.queued -= len(items)
		for _, p := range items {
			if st.queuedBy[p.tenant]--; st.queuedBy[p.tenant] <= 0 {
				delete(st.queuedBy, p.tenant)
			}
		}
		if ln.q.Len() > 0 {
			// Leftovers (more than MaxBatch was queued): either they
			// already fill the next batch, or they wait a fresh
			// BatchDelay for company — the added wait is bounded by one
			// extra BatchDelay since the lane last had a full batch.
			if ln.q.Len() >= s.cfg.MaxBatch || s.cfg.BatchDelay == 0 || st.closed {
				st.markReadyLocked(ln)
			} else {
				key := laneKey(ln.variant, ln.task)
				gen := ln.gen
				time.AfterFunc(s.cfg.BatchDelay, func() { s.flushLane(key, gen) })
			}
		}
		st.mu.Unlock()
		if len(items) > 0 {
			s.execute(ln.variant, ln.task, items)
		}
		st.mu.Lock()
	}
}
