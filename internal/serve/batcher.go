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
//
// A lane exists exactly while it holds a request: the enqueue that finds
// none creates it, the worker that empties it drops it. The variant half of
// the key is a versioned artifact ID, so lanes that outlived their requests
// would pile up one per (published version, task) for the life of the
// process.
type lane struct {
	laneID
	q    *fair.Queue[*pending]
	next *lane // link in the state's ready list
}

// laneID keys the batcher's lanes.
type laneID struct{ variant, task string }

// state is the mutex-guarded queue/batcher core of the Server.
//
// The batcher is pull-model and work-conserving. Admitted requests stay in
// their lane's fair queue until a worker takes a batch, so batch formation —
// the moment tenant interleaving happens — is as late as possible. Readiness
// is one rule: a lane is ready for a worker whenever it holds a request, so
// every lane in the map is also in the ready list, exactly once. A batch is
// whatever queued in the lane while every worker was busy, up to MaxBatch:
// an idle server answers at batch size 1 with no added wait, a saturated one
// fills its batches because arrivals pile into a lane that is already
// waiting its turn. Load sets the batch size; no timer does.
type state struct {
	mu    sync.Mutex
	cond  *sync.Cond // signalled when a lane joins the ready list or the server closes
	lanes map[laneID]*lane
	// readyHead/readyTail are the FIFO of lanes waiting for a worker, linked
	// through lane.next. Lane-level FIFO keeps cross-lane service fair too: a
	// lane with leftovers rejoins at the tail, it cannot monopolize the
	// workers.
	readyHead, readyTail *lane
	// queued counts admitted requests not yet taken by a worker; QueueCap
	// bounds it. queuedBy splits the same count per tenant for the
	// weighted queue-share guard (see Server.enqueue).
	queued   int
	queuedBy map[string]int
	closed   bool

	workerWG sync.WaitGroup
}

func newState() *state {
	st := &state{lanes: map[laneID]*lane{}, queuedBy: map[string]int{}}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// pushReadyLocked appends ln to the ready list and wakes one worker. Caller
// holds st.mu.
func (st *state) pushReadyLocked(ln *lane) {
	if st.readyTail == nil {
		st.readyHead = ln
	} else {
		st.readyTail.next = ln
	}
	st.readyTail = ln
	st.cond.Signal()
}

// popReadyLocked removes the lane at the head of the ready list. Caller
// holds st.mu and has checked the list is not empty.
func (st *state) popReadyLocked() *lane {
	ln := st.readyHead
	st.readyHead, ln.next = ln.next, nil
	if st.readyHead == nil {
		st.readyTail = nil
	}
	return ln
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

// enqueue admits p into the lane for (variant, task), creating the lane —
// and so readying it for a worker — when p is its first occupant.
func (s *Server) enqueue(variant, task string, p *pending) error {
	st := s.st
	id := laneID{variant, task}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		s.m.inc(cRejectedClosed)
		return ErrShuttingDown
	}
	if st.queued >= s.cfg.QueueCap {
		s.m.count(cRejectedFull, p.row)
		return ErrQueueFull
	}
	if st.queuedBy[p.tenant] >= s.tenantQueueCapLocked(p.tenant) {
		s.m.count(cRejectedShare, p.row)
		return ErrQueueFull
	}
	st.queued++
	st.queuedBy[p.tenant]++
	ln := st.lanes[id]
	if ln == nil {
		ln = &lane{laneID: id, q: fair.NewQueue[*pending](s.cfg.TenantWeights)}
		st.lanes[id] = ln
		st.pushReadyLocked(ln)
	}
	ln.q.Push(p.tenant, p)
	return nil
}

// take blocks until a lane is ready and returns a batch from it, or ok=false
// once the server is closed and drained. Taking a batch is where fairness
// bites: fair.Queue.PopMax interleaves the lane's tenants by deficit round
// robin, and only now do the taken requests stop counting against QueueCap.
// A lane left with more than MaxBatch rejoins the ready list at the tail; a
// lane left empty is dropped.
func (s *Server) take() (ln *lane, items []*pending, ok bool) {
	st := s.st
	st.mu.Lock()
	defer st.mu.Unlock()
	for st.readyHead == nil {
		if st.closed {
			return nil, nil, false
		}
		st.cond.Wait()
	}
	ln = st.popReadyLocked()
	items = ln.q.PopMax(s.cfg.MaxBatch)
	st.queued -= len(items)
	for _, p := range items {
		if st.queuedBy[p.tenant]--; st.queuedBy[p.tenant] <= 0 {
			delete(st.queuedBy, p.tenant)
		}
	}
	if ln.q.Len() > 0 {
		st.pushReadyLocked(ln)
	} else {
		delete(st.lanes, ln.laneID)
	}
	return ln, items, true
}

// worker executes batches until shutdown drains the last one. All shedding,
// panic isolation, quarantine, and breaker accounting happens in execute
// (exec.go).
func (s *Server) worker() {
	defer s.st.workerWG.Done()
	for {
		ln, items, ok := s.take()
		if !ok {
			return
		}
		s.execute(ln.variant, ln.task, items)
	}
}
