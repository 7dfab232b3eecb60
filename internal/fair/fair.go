// Package fair provides the serving layer's multi-tenant admission
// primitives: a deficit-round-robin (DRR) weighted-fair queue that
// interleaves per-tenant subqueues in the server's one request queue, and a
// token-bucket admission budget with burst credits.
//
// The problem both solve is the one the paper's premise creates at fleet
// scale: many tasks — owned by different tenants — multiplexed onto one
// resource-constrained detector. A single FIFO admission queue lets one
// tenant's traffic spike (or poison storm) occupy every queue slot and
// every execution, turning one hot workload into global tail-latency
// collapse. With DRR dequeue, a saturating tenant can never take more than
// its weighted share of executions while other tenants have work waiting;
// with per-tenant budgets, its overrun is rejected at admission (HTTP 429)
// before it can occupy a queue slot at all.
//
// DRR here is the classic Shreedhar/Varghese scheme with unit cost per
// item: each active tenant holds a deficit counter; a rotation visit grants
// quantum·weight credits; items are dequeued while credit lasts; and — the
// property the no-starvation test pins — a tenant's deficit resets to zero
// the moment its subqueue drains, so an idle tenant banks nothing and its
// return can never starve tenants that kept arriving.
package fair

// DefaultWeight is the DRR weight of tenants absent from the weight map.
const DefaultWeight = 1

// quantum is the credit granted per unit weight per rotation visit. Items
// have unit cost (one request = one execution), so quantum 1 already gives
// exact weight-proportional service with the finest interleaving.
const quantum = 1

// subq is one tenant's FIFO inside the fair queue. Its deficit is the credit
// left from the current rotation visit: positive exactly while the rotation
// rests on it, zero otherwise (unit costs spend it to zero, never below).
type subq[T any] struct {
	tenant  string
	weight  int
	items   []T
	head    int
	deficit int
}

func (s *subq[T]) len() int { return len(s.items) - s.head }

func (s *subq[T]) pop() T {
	v := s.items[s.head]
	var zero T
	s.items[s.head] = zero // release the reference for GC
	s.head++
	// Slide the live items down once the popped prefix is the larger part,
	// so a tenant that never drains cycles through a bounded buffer instead
	// of appending behind an ever-advancing head. Each item moves at most
	// once per halving: amortized constant per pop.
	if s.head*2 >= len(s.items) {
		n := copy(s.items, s.items[s.head:])
		clear(s.items[n:])
		s.items = s.items[:n]
		s.head = 0
	}
	return v
}

// Queue is a weighted-fair queue over per-tenant subqueues. It is NOT safe
// for concurrent use: the serving layer calls it under its queue mutex.
type Queue[T any] struct {
	weights map[string]int
	subs    map[string]*subq[T]
	// ring holds the active (non-empty) subqueues in rotation order;
	// cursor is the subqueue the next Pop serves.
	ring   []*subq[T]
	cursor int
	size   int
}

// NewQueue builds a fair queue with the given tenant weights (nil or
// missing entries fall back to DefaultWeight; non-positive weights are
// clamped to 1). The map is not copied; callers must not mutate it.
func NewQueue[T any](weights map[string]int) *Queue[T] {
	return &Queue[T]{weights: weights, subs: map[string]*subq[T]{}}
}

// Weight reports the effective DRR weight of a tenant.
func (q *Queue[T]) Weight(tenant string) int {
	if w, ok := q.weights[tenant]; ok && w > 0 {
		return w
	}
	return DefaultWeight
}

// Len is the total number of queued items across all tenants.
func (q *Queue[T]) Len() int { return q.size }

// TenantLen is the number of queued items for one tenant.
func (q *Queue[T]) TenantLen(tenant string) int {
	if s, ok := q.subs[tenant]; ok {
		return s.len()
	}
	return 0
}

// Tenants is the number of tenants with items queued.
func (q *Queue[T]) Tenants() int { return len(q.ring) }

// EachTenant calls fn with every tenant that has items queued and how many,
// in rotation order.
func (q *Queue[T]) EachTenant(fn func(tenant string, queued int)) {
	for _, s := range q.ring {
		fn(s.tenant, s.len())
	}
}

// Push appends v to tenant's subqueue, creating the subqueue at the tail of
// the rotation when the tenant had nothing queued.
func (q *Queue[T]) Push(tenant string, v T) {
	s := q.subs[tenant]
	if s == nil {
		s = &subq[T]{tenant: tenant, weight: q.Weight(tenant)}
		q.subs[tenant] = s
		q.ring = append(q.ring, s)
	}
	s.items = append(s.items, v)
	q.size++
}

// Pop dequeues the next item by deficit round robin, or reports false when
// the queue is empty. The rotation rests on a tenant until its visit's
// credit (quantum·weight items) is spent, so a run of Pops serves each
// backlogged tenant in proportion to its weight. A subqueue that drains
// leaves the rotation with its deficit reset to zero (idle tenants bank
// nothing) and is released entirely, so the tenant set the queue remembers
// is exactly the set with work queued.
func (q *Queue[T]) Pop() (T, bool) {
	if q.size == 0 {
		var zero T
		return zero, false
	}
	s := q.ring[q.cursor]
	if s.deficit == 0 {
		s.deficit = quantum * s.weight
	}
	v := s.pop()
	s.deficit--
	q.size--
	switch {
	case s.len() == 0:
		// Drained: leave the rotation, forfeiting the credit left.
		delete(q.subs, s.tenant)
		q.ring = append(q.ring[:q.cursor], q.ring[q.cursor+1:]...)
		if q.cursor >= len(q.ring) {
			q.cursor = 0
		}
	case s.deficit == 0:
		// Credit spent: next rotation position.
		q.cursor = (q.cursor + 1) % len(q.ring)
	}
	return v, true
}

// PopMax dequeues up to n items: exactly the sequence n calls to Pop would
// return, stopping early when the queue empties.
func (q *Queue[T]) PopMax(n int) []T {
	if n <= 0 || q.size == 0 {
		return nil
	}
	out := make([]T, 0, min(n, q.size))
	for len(out) < n {
		v, ok := q.Pop()
		if !ok {
			break
		}
		out = append(out, v)
	}
	return out
}
