package fair

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// Under saturation (every tenant always has work queued), DRR service
// converges to the configured weight ratio. Weights {1,2,4} must yield a
// 1:2:4 service ratio within a tight tolerance, across a range of batch
// sizes — including ones that cut rotations mid-tenant.
func TestDRRConvergesToWeightRatio(t *testing.T) {
	weights := map[string]int{"a": 1, "b": 2, "c": 4}
	for _, batch := range []int{1, 3, 8, 64} {
		q := NewQueue[string](weights)
		served := map[string]int{}
		total := 0
		const rounds = 7000
		for total < rounds {
			// Keep every tenant saturated.
			for tenant := range weights {
				for q.TenantLen(tenant) < batch+1 {
					q.Push(tenant, tenant)
				}
			}
			for _, v := range q.PopMax(batch) {
				served[v]++
				total++
			}
		}
		sum := float64(served["a"] + served["b"] + served["c"])
		for tenant, w := range weights {
			got := float64(served[tenant]) / sum
			want := float64(w) / 7.0
			if math.Abs(got-want)/want > 0.05 {
				t.Errorf("batch=%d tenant %s served share %.3f, want %.3f (served=%v)",
					batch, tenant, got, want, served)
			}
		}
	}
}

// An idle tenant banks no credit: after sitting out many rotations it
// re-enters with a deficit of zero, so its backlog cannot starve tenants
// that kept arriving. In any window after the return, the returning
// tenant's service stays proportional to its weight — not to its idle time.
func TestIdleTenantBanksNothing(t *testing.T) {
	q := NewQueue[string](map[string]int{"steady": 1, "sleeper": 1})
	// sleeper appears once, drains, then goes idle for many rotations.
	q.Push("sleeper", "sleeper")
	q.PopMax(1)
	for i := 0; i < 1000; i++ {
		q.Push("steady", "steady")
		q.PopMax(1)
	}
	// sleeper returns with a large backlog; steady keeps arriving.
	for i := 0; i < 64; i++ {
		q.Push("sleeper", "sleeper")
	}
	served := map[string]int{}
	for i := 0; i < 32; i++ {
		q.Push("steady", "steady")
		for _, v := range q.PopMax(2) {
			served[v]++
		}
	}
	// Equal weights: the window must split near-evenly; a banked deficit
	// would let sleeper take (nearly) the whole window.
	if served["steady"] < 24 {
		t.Fatalf("steady served only %d of 64 slots after sleeper's return (sleeper=%d): idle tenant banked credit",
			served["steady"], served["sleeper"])
	}
}

// Order within one tenant is FIFO, and nothing is lost or duplicated under
// randomized interleaving of pushes and pops.
func TestQueueFIFOPerTenantAndConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tenants := []string{"a", "b", "c", "d"}
	q := NewQueue[int](map[string]int{"a": 1, "b": 2, "c": 4})
	// Values encode (tenant index, sequence) so a pop can be checked
	// against exactly its own tenant's FIFO expectation.
	next := map[string]int{}   // next sequence number to push, per tenant
	expect := map[string]int{} // next sequence number to pop, per tenant
	pushed, popped := 0, 0
	drain := func(vals []int) {
		for _, v := range vals {
			tn := tenants[v/1000000]
			seq := v % 1000000
			if expect[tn] != seq {
				t.Fatalf("tenant %s popped seq %d, want %d (FIFO violated)", tn, seq, expect[tn])
			}
			expect[tn]++
			popped++
		}
	}
	for i := 0; i < 20000; i++ {
		if rng.Intn(2) == 0 {
			ti := rng.Intn(len(tenants))
			tn := tenants[ti]
			q.Push(tn, ti*1000000+next[tn])
			next[tn]++
			pushed++
		} else {
			drain(q.PopMax(rng.Intn(5)))
		}
		if q.Len() != pushed-popped {
			t.Fatalf("Len() = %d, want %d", q.Len(), pushed-popped)
		}
	}
	drain(q.PopMax(q.Len()))
	if popped != pushed {
		t.Fatalf("conservation: pushed %d, popped %d", pushed, popped)
	}
	if q.Len() != 0 || q.Tenants() != 0 {
		t.Fatalf("drained queue reports Len=%d Tenants=%d", q.Len(), q.Tenants())
	}
}

// A PopMax that fills mid-tenant resumes the same tenant with its
// remaining credit, so small batches don't skew service toward any
// rotation position.
func TestPopMaxResumesMidTenant(t *testing.T) {
	q := NewQueue[string](map[string]int{"heavy": 4, "light": 1})
	for i := 0; i < 8; i++ {
		q.Push("heavy", "heavy")
		q.Push("light", "light")
	}
	var order []string
	for q.Len() > 0 {
		order = append(order, q.PopMax(2)...)
	}
	// One full rotation serves 4 heavy then 1 light regardless of the
	// batch size cutting it into pieces.
	wantPrefix := []string{"heavy", "heavy", "heavy", "heavy", "light"}
	for i, w := range wantPrefix {
		if order[i] != w {
			t.Fatalf("service order %v, want prefix %v", order[:len(wantPrefix)], wantPrefix)
		}
	}
}

func TestPopMaxEdgeCases(t *testing.T) {
	q := NewQueue[int](nil)
	if got := q.PopMax(4); got != nil {
		t.Fatalf("PopMax on empty queue = %v, want nil", got)
	}
	q.Push("t", 1)
	if got := q.PopMax(0); got != nil {
		t.Fatalf("PopMax(0) = %v, want nil", got)
	}
	if got := q.PopMax(100); len(got) != 1 || got[0] != 1 {
		t.Fatalf("PopMax(100) = %v, want [1]", got)
	}
	if q.Weight("unknown") != DefaultWeight {
		t.Fatalf("Weight(unknown) = %d, want %d", q.Weight("unknown"), DefaultWeight)
	}
}

// PopMax(n) is exactly n Pops: two queues built from the same seeded random
// weights and pushes, one drained in random-sized PopMax calls and the other
// one Pop at a time, hand out the same items in the same order.
func TestPopMaxIsASequenceOfPops(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tenants := []string{"a", "b", "c", "d", "e"}
		weights := map[string]int{}
		for _, tn := range tenants[:rng.Intn(len(tenants)+1)] {
			weights[tn] = 1 + rng.Intn(5)
		}
		batched, single := NewQueue[int](weights), NewQueue[int](weights)
		var got, want []int
		for i := 0; i < 5000; i++ {
			if rng.Intn(3) > 0 {
				tn := tenants[rng.Intn(len(tenants))]
				batched.Push(tn, i)
				single.Push(tn, i)
				continue
			}
			n := rng.Intn(9)
			got = append(got, batched.PopMax(n)...)
			for j := 0; j < n; j++ {
				if v, ok := single.Pop(); ok {
					want = append(want, v)
				}
			}
		}
		for {
			v, ok := single.Pop()
			if !ok {
				break
			}
			want = append(want, v)
		}
		got = append(got, batched.PopMax(batched.Len())...)
		if len(got) != len(want) {
			t.Fatalf("seed %d: PopMax handed out %d items, Pop %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d weights %v: item %d is %d from PopMax, %d from Pop", seed, weights, i, got[i], want[i])
			}
		}
	}
}

func TestPopEmpty(t *testing.T) {
	q := NewQueue[int](nil)
	if v, ok := q.Pop(); ok {
		t.Fatalf("Pop on an empty queue = %d, true", v)
	}
	q.Push("t", 7)
	if v, ok := q.Pop(); !ok || v != 7 {
		t.Fatalf("Pop = %d, %v, want 7, true", v, ok)
	}
	if _, ok := q.Pop(); ok || q.Len() != 0 || q.Tenants() != 0 {
		t.Fatalf("drained queue: Len %d, Tenants %d", q.Len(), q.Tenants())
	}
}

// TestBackloggedTenantBufferStaysBounded: a tenant that never drains — a
// standing depth of 8 through a million push/pop pairs — keeps FIFO order
// and a buffer the size of its backlog, not of its history.
func TestBackloggedTenantBufferStaysBounded(t *testing.T) {
	q := NewQueue[int](nil)
	const depth = 8
	next := 0
	for ; next < depth; next++ {
		q.Push("t", next)
	}
	for i := 0; i < 1_000_000; i++ {
		q.Push("t", next)
		next++
		if got := q.PopMax(1); len(got) != 1 || got[0] != i {
			t.Fatalf("pop %d = %v, want [%d]", i, got, i)
		}
	}
	if q.TenantLen("t") != depth {
		t.Fatalf("standing depth %d, want %d", q.TenantLen("t"), depth)
	}
	if c := cap(q.subs["t"].items); c > 8*depth {
		t.Fatalf("a backlog of %d holds a buffer of %d items", depth, c)
	}
}

// Burst credits: a fresh tenant gets burst requests immediately, then is
// paced at rate; an idle stretch refills up to burst and no further.
func TestBudgetBurstAndRefill(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBudget(10, 3)
	for i := 0; i < 3; i++ {
		if !b.Allow("a", now) {
			t.Fatalf("burst credit %d denied", i)
		}
	}
	if b.Allow("a", now) {
		t.Fatal("4th request within burst window admitted")
	}
	if ra := b.RetryAfter("a", now); ra <= 0 || ra > 100*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want (0, 100ms]", ra)
	}
	// 100ms refills exactly one token at 10/s.
	if !b.Allow("a", now.Add(100*time.Millisecond)) {
		t.Fatal("refilled token denied")
	}
	if b.Allow("a", now.Add(100*time.Millisecond)) {
		t.Fatal("second request admitted on one refilled token")
	}
	// A long idle stretch clamps at burst, never beyond.
	later := now.Add(time.Hour)
	for i := 0; i < 3; i++ {
		if !b.Allow("a", later) {
			t.Fatalf("post-idle burst credit %d denied", i)
		}
	}
	if b.Allow("a", later) {
		t.Fatal("idle tenant banked more than burst")
	}
}

// Tenants are independent: one tenant exhausting its bucket never affects
// another's.
func TestBudgetTenantIsolation(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBudget(1, 2)
	for b.Allow("noisy", now) {
	}
	if !b.Allow("quiet", now) {
		t.Fatal("noisy tenant's exhaustion denied quiet tenant")
	}
}

func TestBudgetUnlimited(t *testing.T) {
	b := NewBudget(0, 0)
	if b.Limiting() {
		t.Fatal("rate 0 should not limit")
	}
	now := time.Unix(1000, 0)
	for i := 0; i < 10000; i++ {
		if !b.Allow("t", now) {
			t.Fatal("unlimited budget denied")
		}
	}
	if ra := b.RetryAfter("t", now); ra != 0 {
		t.Fatalf("RetryAfter on unlimited budget = %v", ra)
	}
}

// The bucket table is bounded: a storm of distinct tenant IDs reaps
// refilled buckets instead of growing without bound.
func TestBudgetBucketTableBounded(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBudget(100, 1)
	for i := 0; i < 3*maxBuckets; i++ {
		b.Allow(string(rune('a'+i%26))+string(rune('0'+(i/26)%10))+itoa(i), now.Add(time.Duration(i)*time.Millisecond))
	}
	b.mu.Lock()
	n := len(b.buckets)
	b.mu.Unlock()
	if n > maxBuckets {
		t.Fatalf("bucket table grew to %d, cap %d", n, maxBuckets)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}
