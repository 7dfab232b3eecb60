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

// A lone request on an idle server waits for no company: a worker takes it
// at once, in a batch of one, so it queues for less time than it executes.
func TestLoneRequestRunsAtOnce(t *testing.T) {
	fb := newFakeBackend()
	fb.delay = 5 * time.Millisecond // the request's own execution time
	cfg := Config{Workers: 1, MaxBatch: 64, QueueCap: 128}
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
		t.Errorf("backend saw batches %v, want [1]", sizes)
	}
}

// Under saturation the load forms the batches: with every worker busy,
// arrivals pile into their lane, and each worker that frees takes a full
// MaxBatch of them, tenants interleaved by their DRR weights.
func TestSaturationFormsFullBatches(t *testing.T) {
	const gold, free = 1, 2 // image marks
	fb := newFakeBackend()
	gb := chaos.Wrap(fb, chaos.Config{})
	cfg := Config{
		Workers: 2, MaxBatch: 4, QueueCap: 64,
		TenantWeights: map[string]int{"gold": 3, "free": 1},
	}
	s := newTestServer(t, gb, cfg)
	release := parkWorkers(t, s, gb, "patrol")

	// 4·MaxBatch arrivals in the tenants' 3:1 weight ratio, one tenant after
	// the other so that only DRR can interleave them.
	const n = 4 * 4
	var outs []<-chan Outcome
	for i := 0; i < n; i++ {
		req := Request{Task: "patrol", Tenant: "gold", Image: markedImage(gold)}
		if i >= n*3/4 {
			req.Tenant, req.Image = "free", markedImage(free)
		}
		ch, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, ch)
	}
	checkBatcher(t, s)
	if depth := s.Snapshot().QueueDepth; depth != n {
		t.Fatalf("queue depth %d behind parked workers, want %d", depth, n)
	}
	release()
	for i, ch := range outs {
		if out := <-ch; out.Err != nil || out.Res.BatchSize != cfg.MaxBatch {
			t.Errorf("request %d: err %v, batch size %d, want a full batch of %d", i, out.Err, out.Res.BatchSize, cfg.MaxBatch)
		}
	}

	// The parked plugs ran alone; everything else rode in ⌈n/MaxBatch⌉ batches.
	plugs, full := 0, 0
	for _, b := range fb.seen() {
		slots := map[float32]int{}
		for _, mark := range b {
			slots[mark]++
		}
		switch {
		case len(b) == 1 && slots[0] == 1:
			plugs++
		case len(b) == cfg.MaxBatch && slots[gold] == 3 && slots[free] == 1:
			full++
		default:
			t.Errorf("batch %v: want a plug or %d slots split 3 gold : 1 free", b, cfg.MaxBatch)
		}
	}
	if plugs != cfg.Workers || full != n/cfg.MaxBatch {
		t.Errorf("backend saw %d plugs and %d full batches, want %d and %d", plugs, full, cfg.Workers, n/cfg.MaxBatch)
	}
	checkBatcher(t, s)
	checkBooks(t, s.Snapshot())
}

// checkBatcher asserts the batcher's readiness rule under its lock: a lane
// exists exactly while it holds a request, and every lane waits in the ready
// list exactly once — no request ever sits where no worker will look.
func checkBatcher(t *testing.T, s *Server) {
	t.Helper()
	st := s.st
	st.mu.Lock()
	defer st.mu.Unlock()
	ready, queued := 0, 0
	for ln := st.readyHead; ln != nil; ln = ln.next {
		ready++
		queued += ln.q.Len()
		if ln.q.Len() == 0 {
			t.Errorf("empty lane %v in the ready list", ln.laneID)
		}
		if st.lanes[ln.laneID] != ln {
			t.Errorf("ready lane %v is not the one in the lane map", ln.laneID)
		}
		if ln.next == nil && st.readyTail != ln {
			t.Errorf("ready list ends at %v, tail says otherwise", ln.laneID)
		}
	}
	if ready != len(st.lanes) {
		t.Errorf("%d lanes in the map, %d in the ready list", len(st.lanes), ready)
	}
	if queued != st.queued {
		t.Errorf("lanes hold %d requests, queued counter says %d", queued, st.queued)
	}
}

// One lane hand-off per request is the batcher's hot path: enqueue into an
// idle batcher and take the batch back. The ready list links lanes in place,
// so the cycle allocates only the lane and its queue — a constant, with no
// backing array to regrow or to pin dropped lanes.
func TestEnqueueTakeAllocs(t *testing.T) {
	gb := chaos.Wrap(newFakeBackend(), chaos.Config{})
	s := newTestServer(t, gb, Config{Workers: 1, MaxBatch: 8, QueueCap: 16})
	parkWorkers(t, s, gb, "patrol") // the test itself plays the worker
	p := &pending{tenant: DefaultTenant, row: s.m.tenant(DefaultTenant)}
	cycle := func() {
		if err := s.enqueue("gen", "patrol", p); err != nil {
			t.Fatal(err)
		}
		if _, items, ok := s.take(); !ok || len(items) != 1 || items[0] != p {
			t.Fatalf("take returned %v, %v", items, ok)
		}
	}
	cycle()
	const want = 8 // lane; fair queue, its tenant map (2), subqueue, items, rotation ring; the batch
	if got := testing.AllocsPerRun(200, cycle); got > want {
		t.Errorf("enqueue+take allocates %.0f times per request, want at most %d", got, want)
	}
	checkBatcher(t, s)
	if n := laneCount(s); n != 0 {
		t.Errorf("%d lanes left after every request was taken", n)
	}
}

// Lanes are keyed by versioned artifact, so every publish starts new ones;
// the lanes of superseded versions must go once their requests have.
func TestLanesOfSupersededVersionsAreDropped(t *testing.T) {
	fb := newFakeBackend()
	s := newTestServer(t, fb, Config{Workers: 2, MaxBatch: 4, QueueCap: 64})
	const clients, publishes = 4, 50
	tasks := []string{"patrol", "inspect", "triage"}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Detect(context.Background(), Request{Task: tasks[(c+i)%len(tasks)], Image: testImage()}); err != nil {
					t.Errorf("detect: %v", err)
					return
				}
			}
		}(c)
	}
	for v := 1; v <= publishes; v++ {
		served := fb.count()
		fb.mu.Lock()
		for _, task := range tasks {
			fb.variants[task] = fmt.Sprintf("%s@v%d", task, v)
		}
		fb.mu.Unlock()
		// Traffic under this version before the next one supersedes it.
		waitUntil(t, "traffic on the new version", func() bool { return fb.count() >= served+clients })
		checkBatcher(t, s)
		// Every lane holds a request and each client has at most one in flight.
		if lanes := laneCount(s); lanes > clients {
			t.Fatalf("%d lanes after %d publishes, want at most %d (one per waiting request)", lanes, v, clients)
		}
	}
	close(stop)
	wg.Wait()
	if n := laneCount(s); n != 0 {
		t.Errorf("%d lanes left on an idle server after %d publishes, want 0", n, publishes)
	}
}

func laneCount(s *Server) int {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	return len(s.st.lanes)
}

// When the admission queue is at QueueCap, further submissions fail fast
// with ErrQueueFull instead of growing the queue.
func TestQueueFullRejection(t *testing.T) {
	fb := newFakeBackend()
	fb.delay = 50 * time.Millisecond
	// One slow worker, small queue: admitted requests pile up in the lane
	// until QueueCap is hit.
	cfg := Config{Workers: 1, MaxBatch: 4, QueueCap: 8}
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
	cfg := Config{Workers: 1, MaxBatch: 4, QueueCap: 64}
	s, err := New(gb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	release := parkWorkers(t, s, gb, "triage")

	// Admit requests that sit in their lane behind the busy worker until
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

// waitBatches blocks until the fake backend has begun executing n batches.
func waitBatches(t *testing.T, fb *fakeBackend, n int) {
	t.Helper()
	waitUntil(t, fmt.Sprintf("the backend to start batch %d", n), func() bool { return fb.count() >= n })
}

// A request whose deadline passes while it waits in the queue is shed at
// execution time rather than run for nobody.
func TestDeadlineShedWhileQueued(t *testing.T) {
	fb := newFakeBackend()
	// The blocker must still be on the worker when the doomed request's
	// 1ms deadline passes AND when it is submitted; a generous hold keeps
	// the test deterministic on an oversubscribed CI core.
	fb.delay = 250 * time.Millisecond
	cfg := Config{Workers: 1, MaxBatch: 1, QueueCap: 16}
	s := newTestServer(t, fb, cfg)

	// Occupy the only worker, and wait until it is actually inside the
	// backend call (dispatch is asynchronous).
	blocker, err := s.Submit(Request{Task: "patrol", Image: testImage()})
	if err != nil {
		t.Fatal(err)
	}
	waitBatches(t, fb, 1)
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
	cfg := Config{Workers: 1, MaxBatch: 1, QueueCap: 16}
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
