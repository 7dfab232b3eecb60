package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"itask/internal/geom"
	"itask/internal/sched"
	"itask/internal/tensor"
)

// schedBackend adapts a real sched.Scheduler as a serve.Backend, mirroring
// how the root itask package wires the pipeline in — so this hammer test
// exercises the actual scheduler lock under the actual serving layer.
type schedBackend struct {
	s *sched.Scheduler
}

func (b *schedBackend) Route(task string) (string, error) {
	return b.s.Route(sched.Request{Task: task})
}

func (b *schedBackend) DetectBatch(variant, task string, imgs []*tensor.Tensor) ([]any, string, error) {
	dets, m, err := b.s.DetectBatchOn(variant, imgs)
	if err != nil {
		return nil, "", err
	}
	out := make([]any, len(dets))
	for i := range dets {
		out[i] = dets[i]
	}
	return out, m.Name, nil
}

func (b *schedBackend) CacheStats() sched.CacheStats { return b.s.Stats() }

// checkBooks asserts the ledger's invariant on an idle server: every accepted
// request left through exactly one terminal outcome, in total and in each
// tenant's row, and the rows add up to the totals.
func checkBooks(t *testing.T, snap Snapshot) {
	t.Helper()
	if got := snap.Completed + snap.Failed + snap.ShedExpired + snap.ShedCancelled; got != snap.Accepted {
		t.Errorf("unbalanced books: accepted %d, terminal %d (%+v)", snap.Accepted, got, snap)
	}
	var accepted, completed, failed, shed uint64
	for _, ts := range snap.PerTenant {
		if got := ts.Completed + ts.Failed + ts.Shed; got != ts.Accepted {
			t.Errorf("unbalanced books for tenant %q: accepted %d, terminal %d (%+v)", ts.Tenant, ts.Accepted, got, ts)
		}
		accepted += ts.Accepted
		completed += ts.Completed
		failed += ts.Failed
		shed += ts.Shed
	}
	if accepted != snap.Accepted || completed != snap.Completed || failed != snap.Failed ||
		shed != snap.ShedExpired+snap.ShedCancelled {
		t.Errorf("tenant rows sum to accepted %d completed %d failed %d shed %d, totals are %d/%d/%d/%d",
			accepted, completed, failed, shed,
			snap.Accepted, snap.Completed, snap.Failed, snap.ShedExpired+snap.ShedCancelled)
	}
}

// TestServeSchedulerRaceHammer floods a server backed by a real scheduler
// from many goroutines across many tasks (forcing cache contention and
// eviction), while other goroutines concurrently register late models and
// poll stats, and one audits the queue. Run with -race. Afterwards the books
// must balance (checkBooks), and the scheduler's CacheStats saw exactly one
// hit-or-miss per execution.
func TestServeSchedulerRaceHammer(t *testing.T) {
	const (
		tasks      = 4
		goroutines = 8
		iters      = 40
	)
	dummy := func(imgs []*tensor.Tensor) [][]geom.Scored {
		out := make([][]geom.Scored, len(imgs))
		for i := range out {
			out[i] = []geom.Scored{{Class: 1, Score: 0.9}}
		}
		return out
	}
	scheduler := sched.New(2500) // fits 2 of the 1000-byte students: eviction churn
	if err := scheduler.Register(sched.Model{Name: "gen", Kind: sched.Generalist, Bytes: 500, Detect: dummy}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tasks; i++ {
		err := scheduler.Register(sched.Model{
			Name: fmt.Sprintf("student-%d", i), Kind: sched.TaskSpecific,
			Task: fmt.Sprintf("task-%d", i), Bytes: 1000, Detect: dummy,
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	cfg := Config{Workers: 3, QueueCap: 128}
	s, err := New(&schedBackend{s: scheduler}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	img := tensor.New(1)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				task := fmt.Sprintf("task-%d", (g+i)%tasks)
				res, err := s.Detect(context.Background(), Request{Task: task, Tenant: fmt.Sprintf("tenant-%d", g%3), Image: img})
				switch {
				case err == nil:
					if res.Payload == nil || res.Model == "" {
						t.Errorf("empty result for %s", task)
					}
				case errors.Is(err, ErrQueueFull):
					// acceptable under burst
				default:
					t.Errorf("detect %s: %v", task, err)
				}
				if i%10 == 0 {
					_ = s.Snapshot()
					_ = scheduler.Snapshot()
				}
			}
		}(g)
	}
	// The queue's invariants, sampled under its lock all the while.
	hammered := make(chan struct{})
	audited := make(chan struct{})
	go func() {
		defer close(audited)
		for {
			select {
			case <-hammered:
				return
			default:
				checkQueue(t, s)
				runtime.Gosched()
			}
		}
	}()
	// Concurrent late registrations racing the serving path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			name := fmt.Sprintf("late-%d", i)
			if err := scheduler.Register(sched.Model{
				Name: name, Kind: sched.TaskSpecific, Task: name, Bytes: 200, Detect: dummy,
			}); err != nil {
				t.Errorf("late register: %v", err)
			}
		}
	}()
	wg.Wait()
	close(hammered)
	<-audited
	// Four tasks taking turns through a cache that holds two students can
	// miss every time under the hammer, so make one hit certain: with the
	// server otherwise idle, the second of two back-to-back requests for one
	// task finds the student the first one left warm.
	for i := 0; i < 2; i++ {
		if _, err := s.Detect(context.Background(), Request{Task: "task-0", Tenant: "tenant-0", Image: img}); err != nil {
			t.Fatalf("warm repeat %d: %v", i, err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	snap := s.Snapshot()
	checkBooks(t, snap)
	if snap.QueueDepth != 0 {
		t.Errorf("queue depth %d after shutdown", snap.QueueDepth)
	}
	st := scheduler.Stats()
	if got, want := uint64(st.Hits+st.Misses), snap.Batches; got != want {
		t.Errorf("scheduler selections %d != executions %d (lost CacheStats updates)", got, want)
	}
	if snap.CacheHitRate <= 0 {
		t.Errorf("cache hit rate %f, want > 0", snap.CacheHitRate)
	}
}

// gatedPoisonBackend is poisonBackend behind a gate: executions block until
// the gate is closed, so a test can build a queue of its choosing first.
type gatedPoisonBackend struct {
	poisonBackend
	gate chan struct{}
}

func (b *gatedPoisonBackend) DetectBatch(variant, task string, imgs []*tensor.Tensor) ([]any, string, error) {
	<-b.gate
	return b.poisonBackend.DetectBatch(variant, task, imgs)
}

// TestLedgerBooksEveryOutcome drives one server through every outcome the
// ledger records — cache hit, replicated hit, coalesced follower, follower
// re-executed after its leader failed, poison failing alone, context cancel,
// queued expiry, budget and queue-share rejection, tenant-table overflow —
// first one by one behind a gated backend so each is certain to happen, then
// all at once from many goroutines under -race, and checks the books in
// total and in every tenant row.
func TestLedgerBooksEveryOutcome(t *testing.T) {
	b := &gatedPoisonBackend{gate: make(chan struct{})}
	cfg := Config{
		Workers: 1, QueueCap: 32,
		CacheBytes: 1 << 20, Coalesce: true, HotThreshold: 2, HotBytes: 1 << 16,
		TenantWeights: map[string]int{"gold": 3, "free": 1},
		TenantRate:    2000, TenantBurst: 16,
	}
	s, err := New(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var seq atomic.Uint32
	unique := func() *tensor.Tensor {
		img := testImage()
		img.Data[1] = float32(seq.Add(1))
		return img
	}
	poison := testImage()
	poison.Data[0] = poisonPixel
	shared := testImage()
	shared.Data[2] = 1
	waitFor := func(what string, cond func(Snapshot) bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(s.Snapshot()); time.Sleep(200 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, s.Snapshot())
			}
		}
	}
	var outs []<-chan Outcome
	submit := func(tenant string, img *tensor.Tensor, deadline time.Time) error {
		ch, err := s.Submit(Request{Task: "patrol", Tenant: tenant, Image: img, Deadline: deadline})
		if err == nil {
			outs = append(outs, ch)
		}
		return err
	}
	mustSubmit := func(tenant string, img *tensor.Tensor, deadline time.Time) {
		t.Helper()
		if err := submit(tenant, img, deadline); err != nil {
			t.Fatal(err)
		}
	}

	// The single worker takes the first request and blocks in the backend;
	// everything after it queues.
	mustSubmit("gold", unique(), time.Time{})
	waitFor("the worker to take the blocker", func(sn Snapshot) bool { return sn.Accepted == 1 && sn.QueueDepth == 0 })
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		_, err := s.Detect(ctx, Request{Task: "patrol", Tenant: "gold", Image: unique()})
		cancelled <- err
	}()
	waitFor("the doomed request to queue", func(sn Snapshot) bool { return sn.QueueDepth == 1 })
	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Detect: %v", err)
	}
	expires := time.Now().Add(20 * time.Millisecond)
	mustSubmit("free", unique(), expires)
	for i := 0; i < 3; i++ { // a poisoned leader and two followers it must not fail
		mustSubmit("red", poison, time.Time{})
	}
	for i := 0; i < 3; i++ { // a healthy leader and two followers it serves
		mustSubmit("gold", shared, time.Time{})
	}
	for err == nil { // until the weighted share guard stops tenant free
		err = submit("free", unique(), time.Time{})
	}
	if !errors.Is(err, ErrQueueFull) || s.Snapshot().RejectedShare != 1 {
		t.Fatalf("tenant free past its queue share: err %v, rejected_tenant_share %d", err, s.Snapshot().RejectedShare)
	}
	time.Sleep(time.Until(expires) + time.Millisecond)
	close(b.gate)
	for _, ch := range outs {
		<-ch
	}
	outs = nil

	// Budget: a burst far past the bucket, faster than it refills.
	var overBudget *TenantBudgetError
	for i := 0; i < 64; i++ {
		if err := submit("greedy", unique(), time.Time{}); err != nil && !errors.As(err, &overBudget) && !errors.Is(err, ErrQueueFull) {
			t.Fatal(err)
		}
	}
	for _, ch := range outs {
		<-ch
	}
	// Cache hits, then (two reads trip HotThreshold) replicated hits; then
	// the same cached frame from more tenants than the table has rows.
	for i := 0; i < maxTenantStats+32; i++ {
		tenant := "gold"
		if i >= 8 {
			tenant = fmt.Sprintf("crowd-%04d", i)
		}
		if res, err := s.Detect(context.Background(), Request{Task: "patrol", Tenant: tenant, Image: shared}); err != nil || !res.Cached {
			t.Fatalf("cached frame for %s: %v %+v", tenant, err, res)
		}
	}

	// All of it at once.
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				req := Request{Task: "patrol", Tenant: []string{"gold", "free", "red"}[(g+i)%3], Image: unique()}
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				switch (g + i*7) % 6 {
				case 0:
					req.Image = shared
				case 1:
					req.Image = poison
				case 2:
					req.Image = testImage() // the same fresh frame from every goroutine: coalesces
					req.Image.Data[3] = float32(i)
				case 3:
					ctx, cancel = context.WithTimeout(ctx, 50*time.Microsecond)
				case 4:
					req.Tenant = fmt.Sprintf("late-%d-%d", g, i)
				}
				_, err := s.Detect(ctx, req)
				cancel()
				switch {
				case err == nil, errors.Is(err, ErrQueueFull), errors.Is(err, ErrTenantBudget),
					errors.Is(err, ErrBackendPanic), errors.Is(err, ErrDeadlineExceeded),
					errors.Is(err, context.DeadlineExceeded):
				default:
					t.Errorf("detect: %v", err)
				}
				if i%16 == 0 {
					_ = s.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	snap := s.Snapshot()
	checkBooks(t, snap)
	for name, n := range map[string]uint64{
		"result_cache_hits": snap.ResultCacheHits, "hot_hits": snap.ResultCache.HotHits,
		"coalesced": snap.Coalesced, "coalesced_retried": snap.CoalescedRetried,
		"quarantined_poison": snap.Quarantined, "failed": snap.Failed,
		"shed_cancelled": snap.ShedCancelled, "shed_deadline_expired": snap.ShedExpired,
		"rejected_tenant_budget": snap.RejectedBudget, "rejected_tenant_share": snap.RejectedShare,
	} {
		if n == 0 {
			t.Errorf("%s = 0: the mix never reached that outcome (%+v)", name, snap)
		}
	}
	rows := map[string]TenantStats{}
	for _, ts := range snap.PerTenant {
		rows[ts.Tenant] = ts
	}
	if over := rows[overflowTenant]; over.Accepted == 0 || len(snap.PerTenant) > maxTenantStats+1 {
		t.Errorf("overflow row %+v among %d rows, want traffic folded into it past %d tenants",
			over, len(snap.PerTenant), maxTenantStats)
	}
	if red := rows["red"]; red.Failed < 3 {
		t.Errorf("tenant red failed %d, want its poisoned leader and both re-executed followers (>= 3)", red.Failed)
	}
	if free := rows["free"]; free.Shed == 0 || free.Rejected == 0 {
		t.Errorf("tenant free row %+v, want its queued expiry and its share rejection", free)
	}
}
