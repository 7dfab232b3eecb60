package serve

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"itask/internal/tensor"
	"itask/internal/testutil"
)

// While one execution hangs past the watchdog, a replacement worker holds
// its slot: with a single worker the next request still completes. Once the
// hung call returns, its goroutine exits and the abandoned count is reaped.
func TestWatchdogReplacesHungWorker(t *testing.T) {
	fb := newFaultBackend()
	fb.broken["student"] = "hang"
	fb.hangFor = 300 * time.Millisecond
	cfg := faultConfig() // one worker
	cfg.Watchdog = 20 * time.Millisecond
	s := newTestServer(t, fb, cfg)
	ctx := context.Background()

	// One healthy execution first, so the goroutine baseline includes
	// whatever the first request starts for good.
	if _, err := s.Detect(ctx, Request{Task: "inspect", Image: testImage()}); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	start := time.Now()
	if _, err := s.Detect(ctx, Request{Task: "patrol", Image: testImage()}); !errors.Is(err, ErrWatchdog) {
		t.Fatalf("hung request: err = %v, want ErrWatchdog", err)
	}
	if n := s.abandonedOn("student"); n != 1 {
		t.Fatalf("abandonedOn = %d while the call hangs, want 1", n)
	}
	next, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if _, err := s.Detect(next, Request{Task: "inspect", Image: testImage()}); err != nil {
		t.Fatalf("request behind the hung execution: %v", err)
	}
	if waited := time.Since(start); waited >= fb.hangFor {
		t.Fatalf("the next request waited %v, as long as the hung call (%v)", waited, fb.hangFor)
	}
	waitUntil(t, "the hung call's count to be reaped", func() bool { return s.abandonedOn("student") == 0 })
	waitUntil(t, "the hung worker's goroutine to exit", func() bool { return runtime.NumGoroutine() <= baseline })
	if _, err := s.Detect(ctx, Request{Task: "inspect", Image: testImage()}); err != nil {
		t.Fatalf("after the hung call returned: %v", err)
	}
	checkBooks(t, s.Snapshot())
}

// gateBackend blocks every execution of its gated task until the test
// releases it, and answers every other task at once.
type gateBackend struct {
	gated   string
	entered chan struct{}
	release chan struct{}
}

func (g *gateBackend) Route(string) (string, error) { return "v", nil }

func (g *gateBackend) DetectBatch(_, task string, imgs []*tensor.Tensor) ([]any, string, error) {
	if task == g.gated {
		g.entered <- struct{}{}
		<-g.release
	}
	return []any{task}, "v", nil
}

// A watchdog fire that arrives after its own execution finished — the timer
// is re-armed for the next execution while the stale fire is still on its
// way — must leave that next execution alone, and so must a fire on an idle
// worker.
func TestStaleWatchdogFireIsIgnored(t *testing.T) {
	g := &gateBackend{gated: "slow", entered: make(chan struct{}), release: make(chan struct{})}
	s := newTestServer(t, g, Config{Workers: 1, QueueCap: 4, Watchdog: time.Hour})
	w := s.newWorker() // driven by hand, beside the server's own worker
	defer w.timer.Stop()
	request := func(task string) *pending {
		return &pending{
			image: testImage(), task: task, tenant: DefaultTenant, variant: "v",
			enq: time.Now(), row: s.m.tenant(DefaultTenant), done: make(chan Outcome, 1),
		}
	}

	first := request("fast")
	if !w.execute(first) {
		t.Fatal("a fast execution was abandoned")
	}
	if out := <-first.done; out.Err != nil {
		t.Fatalf("first execution: %v", out.Err)
	}
	w.fire() // the first execution's fire, on an idle worker
	if w.running.Load() != 0 {
		t.Fatalf("a fire on an idle worker left running = %d", w.running.Load())
	}

	next := request("slow")
	kept := make(chan bool, 1)
	go func() { kept <- w.execute(next) }()
	<-g.entered
	w.fire() // the first execution's fire, arriving during the next one
	if n := s.abandonedOn("v"); n != 0 {
		t.Fatalf("a stale fire abandoned the next execution (abandonedOn = %d)", n)
	}
	select {
	case out := <-next.done:
		t.Fatalf("a stale fire answered the next execution: %+v", out)
	default:
	}
	close(g.release)
	if !<-kept {
		t.Fatal("the next execution was abandoned")
	}
	if out := <-next.done; out.Err != nil || out.Res.Payload != "slow" {
		t.Fatalf("next execution: %+v", out)
	}
	if snap := s.Snapshot(); snap.WatchdogTimeouts != 0 {
		t.Fatalf("WatchdogTimeouts = %d after stale fires", snap.WatchdogTimeouts)
	}
}

// stubBackend answers every request at once with a one-element payload
// slice: the only allocation an executed request owes its backend.
type stubBackend struct{}

func (stubBackend) Route(string) (string, error) { return "stub", nil }

func (stubBackend) DetectBatch(_, _ string, imgs []*tensor.Tensor) ([]any, string, error) {
	return []any{nil}, "stub", nil
}

// An executed request, watchdog on, pays for its own admission and answer
// but for no goroutine, channel, timer, context or image slice of its
// execution: the worker runs the backend itself, under a timer it re-arms.
func TestExecutedRequestAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheBytes = 0
	cfg.Coalesce = false
	if cfg.Watchdog <= 0 {
		t.Fatal("DefaultConfig has no watchdog")
	}
	s := newTestServer(t, stubBackend{}, cfg)
	req := Request{Task: "patrol", Image: testImage()}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := s.Detect(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	want := 9.0
	if testutil.Race {
		want += 4 // headroom, as the other pins allow: under -race sync.Pool drops puts at random
	}
	if allocs > want {
		t.Errorf("an executed Detect allocates %.1f objects, want at most %.0f", allocs, want)
	}
	t.Logf("executed Detect: %.1f allocs", allocs)
}
