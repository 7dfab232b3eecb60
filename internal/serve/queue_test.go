package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"itask/internal/chaos"
)

// A lone request on an idle server waits for nothing: a worker takes it at
// once, so it queues for less time than it executes.
func TestLoneRequestRunsAtOnce(t *testing.T) {
	fb := newFakeBackend()
	fb.delay = 5 * time.Millisecond // the request's own execution time
	cfg := Config{Workers: 1, QueueCap: 128}
	s := newTestServer(t, fb, cfg)

	res, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage()})
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchSize != 1 {
		t.Errorf("batch size = %d, want 1", res.BatchSize)
	}
	if exec := res.Total - res.Queued; res.Queued >= exec {
		t.Errorf("lone request queued %v, as long as it executed (%v): it waited beside an idle worker", res.Queued, exec)
	}
	if sizes := fb.sizes(); len(sizes) != 1 || sizes[0] != 1 {
		t.Errorf("backend saw executions of %v images, want [1]", sizes)
	}
}

// The one queue hands executions out in DRR order: with the workers parked
// and 3:1 weights, one tenant's backlog queued entirely behind the other's
// still executes interleaved, three gold requests to each free one, one
// request at a time.
func TestExecutionOrderFollowsTenantWeights(t *testing.T) {
	const gold, free = 1, 2 // image marks
	fb := newFakeBackend()
	gb := chaos.Wrap(fb, chaos.Config{})
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.TenantWeights = map[string]int{"gold": 3, "free": 1}
	s := newTestServer(t, gb, cfg)
	release := parkWorkers(t, s, gb, "patrol")

	// 16 arrivals in the tenants' 3:1 weight ratio, one tenant after the
	// other so that only DRR can interleave them.
	const n = 16
	var outs []<-chan Outcome
	for i := 0; i < n; i++ {
		req := Request{Task: "patrol", Tenant: "gold", Image: markedImage(gold)}
		if i >= n*3/4 {
			req.Tenant, req.Image = "free", markedImage(free)
		}
		req.Image.Data[1] = float32(i) // distinct frames: nothing is cached or coalesced
		ch, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, ch)
	}
	checkQueue(t, s)
	if depth := s.Snapshot().QueueDepth; depth != n {
		t.Fatalf("queue depth %d behind the parked worker, want %d", depth, n)
	}
	release()
	for i, ch := range outs {
		if out := <-ch; out.Err != nil || out.Res.BatchSize != 1 {
			t.Errorf("request %d: err %v, batch size %d, want 1", i, out.Err, out.Res.BatchSize)
		}
	}

	// The plug first, then gold gold gold free, four times over.
	var order []float32
	for _, b := range fb.seen() {
		if len(b) != 1 {
			t.Fatalf("an execution of %d images %v, want one request each", len(b), b)
		}
		order = append(order, b[0])
	}
	want := []float32{0}
	for i := 0; i < n/4; i++ {
		want = append(want, gold, gold, gold, free)
	}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("execution order %v, want %v", order, want)
	}
	snap := s.Snapshot()
	if snap.Batches != n+1 || len(snap.BatchHist) != 1 || snap.BatchHist[0] != n+1 {
		t.Errorf("batches %d, batch_hist %v, want %d executions of one", snap.Batches, snap.BatchHist, n+1)
	}
	checkQueue(t, s)
	checkBooks(t, snap)
}

// A tenant spread over two tasks gets its weighted share of the executions,
// not a share per task: with equal weights, tenant a's backlog split over
// two variants and tenant b's on one, the two tenants alternate for as long
// as both have work queued.
func TestTenantShareSpansTasks(t *testing.T) {
	const aPatrol, aTriage, bPatrol = 1, 2, 3 // image marks
	fb := newFakeBackend()
	gb := chaos.Wrap(fb, chaos.Config{})
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.TenantWeights = map[string]int{"a": 1, "b": 1}
	s := newTestServer(t, gb, cfg)
	release := parkWorkers(t, s, gb, "inspect")

	const each = 8
	var outs []<-chan Outcome
	submit := func(task, tenant string, mark float32) {
		img := markedImage(mark)
		img.Data[1] = float32(len(outs)) // distinct frames: nothing is cached or coalesced
		ch, err := s.Submit(Request{Task: task, Tenant: tenant, Image: img})
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, ch)
	}
	for i := 0; i < each; i++ {
		submit("patrol", "a", aPatrol)
	}
	for i := 0; i < each; i++ {
		submit("triage", "a", aTriage)
	}
	for i := 0; i < 2*each; i++ {
		submit("patrol", "b", bPatrol)
	}
	release()
	for i, ch := range outs {
		if out := <-ch; out.Err != nil {
			t.Fatalf("request %d: %v", i, out.Err)
		}
	}

	seen := fb.seen()[1:] // after the plug
	var a, b int
	for i, batch := range seen {
		for _, mark := range batch {
			if mark == bPatrol {
				b++
			} else {
				a++
			}
		}
		if i < 4*each && (a-b > 1 || b-a > 1) {
			t.Fatalf("after %d executions tenant a had %d and tenant b %d: a's two tasks earned it more than one share (%v)",
				i+1, a, b, seen)
		}
	}
	if a != 2*each || b != 2*each {
		t.Errorf("served a %d, b %d, want %d each", a, b, 2*each)
	}
}

// checkQueue asserts the queue's invariants under its lock: it holds at most
// QueueCap requests, and every one of them sits in a tenant subqueue the DRR
// rotation visits — no request waits where no worker will look.
func checkQueue(t *testing.T, s *Server) {
	t.Helper()
	st := s.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if n := st.q.Len(); n > s.cfg.QueueCap {
		t.Errorf("%d requests queued, QueueCap %d", n, s.cfg.QueueCap)
	}
	inRotation := 0
	st.q.EachTenant(func(tenant string, queued int) {
		if queued == 0 {
			t.Errorf("tenant %q is in the rotation with nothing queued", tenant)
		}
		inRotation += queued
	})
	if inRotation != st.q.Len() {
		t.Errorf("the rotation holds %d requests, the queue counts %d", inRotation, st.q.Len())
	}
}

// One hand-off per request is the queue's hot path: enqueue into an idle
// queue and take the request back. Only the tenant's subqueue and its item
// buffer are allocated; nothing is allocated per batch or per lane.
func TestEnqueueTakeAllocs(t *testing.T) {
	gb := chaos.Wrap(newFakeBackend(), chaos.Config{})
	s := newTestServer(t, gb, Config{Workers: 1, QueueCap: 16})
	parkWorkers(t, s, gb, "patrol") // the test itself plays the worker
	p := &pending{tenant: DefaultTenant, row: s.m.tenant(DefaultTenant), variant: "gen", task: "patrol"}
	cycle := func() {
		if err := s.enqueue(p); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.take(); !ok || got != p {
			t.Fatalf("take returned %v, %v", got, ok)
		}
	}
	cycle()
	const want = 2 // the tenant's subqueue and its items
	if got := testing.AllocsPerRun(200, cycle); got > want {
		t.Errorf("enqueue+take allocates %.0f times per request, want at most %d", got, want)
	}
	checkQueue(t, s)
	if n := s.Snapshot().QueueDepth; n != 0 {
		t.Errorf("%d requests left after every request was taken", n)
	}
}

// When the admission queue is at QueueCap, further submissions fail fast
// with ErrQueueFull instead of growing the queue.
func TestQueueFullRejection(t *testing.T) {
	fb := newFakeBackend()
	fb.delay = 50 * time.Millisecond
	// One slow worker, small queue: admitted requests pile up until
	// QueueCap is hit.
	cfg := Config{Workers: 1, QueueCap: 8}
	s := newTestServer(t, fb, cfg)

	var wg sync.WaitGroup
	var mu sync.Mutex
	var full int
	const n = 32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage()})
			if errors.Is(err, ErrQueueFull) {
				mu.Lock()
				full++
				mu.Unlock()
			} else if err != nil {
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if full == 0 {
		t.Error("no submission was rejected with ErrQueueFull")
	}
	if snap := s.Snapshot(); snap.RejectedFull == 0 {
		t.Errorf("RejectedFull = 0; snapshot %+v", snap)
	}
}

// Shutdown while requests are queued must drain them: every already-admitted
// request completes, new ones are refused with ErrShuttingDown.
func TestShutdownWhileDraining(t *testing.T) {
	fb := newFakeBackend()
	fb.delay = 10 * time.Millisecond
	gb := chaos.Wrap(fb, chaos.Config{})
	cfg := Config{Workers: 1, QueueCap: 64}
	s, err := New(gb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	release := parkWorkers(t, s, gb, "triage")

	// Admit requests that sit in the queue behind the busy worker until
	// after Shutdown has begun.
	const n = 3
	chans := make([]<-chan Outcome, n)
	for i := 0; i < n; i++ {
		ch, err := s.Submit(Request{Task: "patrol", Image: testImage()})
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shutdown := make(chan error, 1)
	go func() { shutdown <- s.Shutdown(ctx) }()
	waitUntil(t, "shutdown to begin", s.Draining)
	release()
	if err := <-shutdown; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	for i, ch := range chans {
		select {
		case out := <-ch:
			if out.Err != nil {
				t.Errorf("request %d failed during drain: %v", i, out.Err)
			}
		default:
			t.Errorf("request %d not completed by Shutdown", i)
		}
	}
	if !s.Draining() {
		t.Error("Draining() = false after Shutdown")
	}
	if _, err := s.Submit(Request{Task: "patrol", Image: testImage()}); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("post-shutdown submit error = %v, want ErrShuttingDown", err)
	}
	if err := s.Shutdown(ctx); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("second shutdown error = %v, want ErrShuttingDown", err)
	}
	snap := s.Snapshot()
	if snap.Completed != n+1 {
		t.Errorf("Completed = %d, want the %d queued requests and the plug", snap.Completed, n)
	}
	if snap.RejectedClosed != 1 {
		t.Errorf("RejectedClosed = %d, want 1", snap.RejectedClosed)
	}
}

// waitExecutions blocks until the fake backend has begun n executions.
func waitExecutions(t *testing.T, fb *fakeBackend, n int) {
	t.Helper()
	waitUntil(t, fmt.Sprintf("the backend to start execution %d", n), func() bool { return fb.count() >= n })
}

// A request whose deadline passes while it waits in the queue is shed at
// execution time rather than run for nobody.
func TestDeadlineShedWhileQueued(t *testing.T) {
	fb := newFakeBackend()
	// The blocker must still be on the worker when the doomed request's
	// 1ms deadline passes AND when it is submitted; a generous hold keeps
	// the test deterministic on an oversubscribed CI core.
	fb.delay = 250 * time.Millisecond
	cfg := Config{Workers: 1, QueueCap: 16}
	s := newTestServer(t, fb, cfg)

	// Occupy the only worker, and wait until it is actually inside the
	// backend call (dispatch is asynchronous).
	blocker, err := s.Submit(Request{Task: "patrol", Image: testImage()})
	if err != nil {
		t.Fatal(err)
	}
	waitExecutions(t, fb, 1)
	// This one expires while the blocker runs.
	doomed, err := s.Submit(Request{
		Task: "patrol", Image: testImage(),
		Deadline: time.Now().Add(time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := <-doomed
	if !errors.Is(out.Err, ErrDeadlineExceeded) {
		t.Errorf("doomed request err = %v, want ErrDeadlineExceeded", out.Err)
	}
	<-blocker
	if snap := s.Snapshot(); snap.ShedExpired != 1 {
		t.Errorf("ShedExpired = %d, want 1", snap.ShedExpired)
	}
}

// An already-expired deadline is refused at admission.
func TestExpiredDeadlineRefusedAtAdmission(t *testing.T) {
	s := newTestServer(t, newFakeBackend(), DefaultConfig())
	_, err := s.Submit(Request{
		Task: "patrol", Image: testImage(),
		Deadline: time.Now().Add(-time.Second),
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	// It was never accepted, so it is a rejection: counting it as shed would
	// leave the books with a terminal outcome and no admission.
	snap := s.Snapshot()
	if snap.RejectedDeadline != 1 || snap.ShedExpired != 0 || snap.Accepted != 0 {
		t.Errorf("rejected_deadline_expired=%d shed_deadline_expired=%d accepted=%d, want 1/0/0",
			snap.RejectedDeadline, snap.ShedExpired, snap.Accepted)
	}
	checkBooks(t, snap)
}

// Detect honours context cancellation while waiting.
func TestDetectContextCancel(t *testing.T) {
	fb := newFakeBackend()
	fb.delay = 100 * time.Millisecond
	cfg := Config{Workers: 1, QueueCap: 16}
	s := newTestServer(t, fb, cfg)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err := s.Detect(ctx, Request{Task: "patrol", Image: testImage()})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
