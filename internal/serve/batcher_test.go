package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// A single request in an otherwise idle server must not wait for a full
// batch: the BatchDelay timer flushes the lane and the request completes in
// a batch of one.
func TestFlushOnDeadlineSingleRequest(t *testing.T) {
	fb := newFakeBackend()
	cfg := Config{Workers: 1, MaxBatch: 64, BatchDelay: 10 * time.Millisecond, QueueCap: 128}
	s := newTestServer(t, fb, cfg)

	start := time.Now()
	res, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage()})
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchSize != 1 {
		t.Errorf("batch size = %d, want 1", res.BatchSize)
	}
	if waited := time.Since(start); waited < cfg.BatchDelay/2 {
		t.Logf("note: completed in %v (timer may have fired early under load)", waited)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("single request waited %v: flush timer did not fire", waited)
	}
	if sizes := fb.sizes(); len(sizes) != 1 || sizes[0] != 1 {
		t.Errorf("backend saw batches %v, want [1]", sizes)
	}
}

// When the admission queue is at QueueCap, further submissions fail fast
// with ErrQueueFull instead of growing the queue.
func TestQueueFullRejection(t *testing.T) {
	fb := newFakeBackend()
	fb.delay = 50 * time.Millisecond
	// One slow worker, small queue: admitted requests pile up in the lane
	// and in blocked dispatches until QueueCap is hit.
	cfg := Config{Workers: 1, MaxBatch: 4, BatchDelay: 20 * time.Millisecond, QueueCap: 8}
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
	cfg := Config{Workers: 1, MaxBatch: 4, BatchDelay: time.Hour, QueueCap: 64}
	s, err := New(fb, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Admit requests that will sit in the lane: BatchDelay is an hour and
	// MaxBatch is 4, so with 3 requests nothing flushes until Shutdown.
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
	if err := s.Shutdown(ctx); err != nil {
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
	if snap.Completed != n {
		t.Errorf("Completed = %d, want %d", snap.Completed, n)
	}
	if snap.RejectedClosed != 1 {
		t.Errorf("RejectedClosed = %d, want 1", snap.RejectedClosed)
	}
}

// waitBatches blocks until the fake backend has begun executing n batches.
func waitBatches(t *testing.T, fb *fakeBackend, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(fb.sizes()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("backend never started batch %d", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// A request whose deadline passes while it waits in the queue is shed at
// execution time rather than run for nobody.
func TestDeadlineShedWhileQueued(t *testing.T) {
	fb := newFakeBackend()
	// The blocker must still be on the worker when the doomed request's
	// 1ms deadline passes AND when it is submitted; a generous hold keeps
	// the test deterministic on an oversubscribed CI core.
	fb.delay = 250 * time.Millisecond
	cfg := Config{Workers: 1, MaxBatch: 1, BatchDelay: 0, QueueCap: 16}
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

// DefaultTimeout applies to requests that carry no deadline.
func TestDefaultTimeout(t *testing.T) {
	fb := newFakeBackend()
	fb.delay = 100 * time.Millisecond
	cfg := Config{Workers: 1, MaxBatch: 1, BatchDelay: 0, QueueCap: 16,
		DefaultTimeout: 25 * time.Millisecond}
	s := newTestServer(t, fb, cfg)

	blocker, err := s.Submit(Request{Task: "patrol", Image: testImage()})
	if err != nil {
		t.Fatal(err)
	}
	waitBatches(t, fb, 1)
	doomed, err := s.Submit(Request{Task: "patrol", Image: testImage()})
	if err != nil {
		t.Fatal(err)
	}
	if out := <-doomed; !errors.Is(out.Err, ErrDeadlineExceeded) {
		t.Errorf("err = %v, want ErrDeadlineExceeded via DefaultTimeout", out.Err)
	}
	<-blocker
}

// Detect honours context cancellation while waiting.
func TestDetectContextCancel(t *testing.T) {
	fb := newFakeBackend()
	fb.delay = 100 * time.Millisecond
	cfg := Config{Workers: 1, MaxBatch: 1, BatchDelay: 0, QueueCap: 16}
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
