package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"itask/internal/chaos"
	"itask/internal/tensor"
)

// poisonMark in a test image's first element makes faultBackend panic when
// it executes the image — a deterministic per-request poison.
const poisonMark = float32(13)

// faultBackend is a controllable faulty backend implementing the full
// optional interface surface: per-image poison panics, per-variant forced
// failure modes, hangs, a fallback variant, and eviction recording.
type faultBackend struct {
	mu        sync.Mutex
	variants  map[string]string // task -> preferred variant
	fallback  string            // "" = no FallbackRouter behaviour
	broken    map[string]string // variant -> "panic" | "error" | "hang"
	hangFor   time.Duration
	execs     map[string]int // per-variant executions
	evicted   []string
	execCount int
}

func newFaultBackend() *faultBackend {
	return &faultBackend{
		variants: map[string]string{"patrol": "student", "inspect": "gen"},
		fallback: "gen",
		broken:   map[string]string{},
		execs:    map[string]int{},
		hangFor:  time.Hour,
	}
}

func (f *faultBackend) Route(task string) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.variants[task]
	if !ok {
		return "", fmt.Errorf("fault: unknown task %q", task)
	}
	return v, nil
}

func (f *faultBackend) RouteFallback(task string) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fallback == "" {
		return "", fmt.Errorf("fault: no fallback")
	}
	return f.fallback, nil
}

func (f *faultBackend) EvictVariant(variant string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.evicted = append(f.evicted, variant)
}

func (f *faultBackend) DetectBatch(variant, task string, imgs []*tensor.Tensor) ([]any, string, error) {
	f.mu.Lock()
	f.execs[variant]++
	f.execCount++
	mode := f.broken[variant]
	hang := f.hangFor
	f.mu.Unlock()
	switch mode {
	case "panic":
		panic(fmt.Sprintf("fault: variant %q broken", variant))
	case "error":
		return nil, "", fmt.Errorf("fault: variant %q erroring", variant)
	case "hang":
		time.Sleep(hang)
	}
	for _, img := range imgs {
		if len(img.Data) > 0 && img.Data[0] == poisonMark {
			panic("fault: poison image")
		}
	}
	out := make([]any, len(imgs))
	for i := range imgs {
		out[i] = i
	}
	return out, "model-" + variant, nil
}

func (f *faultBackend) executions(variant string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.execs[variant]
}

func (f *faultBackend) evictions() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.evicted...)
}

func poisonImage() *tensor.Tensor {
	img := tensor.New(3, 4, 4)
	img.Data[0] = poisonMark
	return img
}

// faultConfig is a fault-tolerance-enabled config with breakers off by
// default (individual tests opt in).
func faultConfig() Config {
	return Config{
		Workers: 1, QueueCap: 64,
		Watchdog: 0,
	}
}

// A panicking backend must fail only the request, never the server.
func TestPanicIsolatedToRequest(t *testing.T) {
	fb := newFaultBackend()
	cfg := faultConfig()
	s := newTestServer(t, fb, cfg)

	_, err := s.Detect(context.Background(), Request{Task: "patrol", Image: poisonImage()})
	if !errors.Is(err, ErrBackendPanic) {
		t.Fatalf("err = %v, want ErrBackendPanic", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %T does not unwrap to *PanicError", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic stack not captured")
	}
	// The server must still serve.
	if _, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage()}); err != nil {
		t.Fatalf("server broken after panic: %v", err)
	}
	snap := s.Snapshot()
	if snap.PanicsRecovered == 0 {
		t.Errorf("PanicsRecovered = 0; %+v", snap)
	}
	if snap.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", snap.Quarantined)
	}
}

// One poison request queued among clean ones fails alone: each request
// executes by itself, so the poison's panic is its own outcome, its seven
// neighbours succeed with no re-execution, and the panicking variant is
// evicted.
func TestPoisonFailsAlone(t *testing.T) {
	fb := newFaultBackend()
	gb := chaos.Wrap(fb, chaos.Config{})
	s := newTestServer(t, gb, faultConfig())
	release := parkWorkers(t, s, gb, "inspect")

	const n = 8 // queued together behind the busy worker
	chans := make([]<-chan Outcome, n)
	poisonAt := 3
	for i := 0; i < n; i++ {
		img := testImage()
		if i == poisonAt {
			img = poisonImage()
		}
		ch, err := s.Submit(Request{Task: "patrol", Image: img})
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	release()
	for i, ch := range chans {
		out := <-ch
		if i == poisonAt {
			if !errors.Is(out.Err, ErrBackendPanic) {
				t.Errorf("poison request %d: err = %v, want ErrBackendPanic", i, out.Err)
			}
			continue
		}
		if out.Err != nil {
			t.Errorf("healthy request %d failed: %v", i, out.Err)
		}
	}
	if got := fb.executions("student"); got != n {
		t.Errorf("student executed %d times for %d requests, want one execution each", got, n)
	}
	snap := s.Snapshot()
	if snap.Quarantined != 1 || snap.Failed != 1 {
		t.Errorf("Quarantined = %d, Failed = %d, want the poison alone", snap.Quarantined, snap.Failed)
	}
	if snap.Completed != n-1+1 {
		t.Errorf("Completed = %d, want the %d healthy requests and the plug", snap.Completed, n-1)
	}
	if snap.VariantEvictions == 0 || len(fb.evictions()) == 0 {
		t.Error("panicking variant was not evicted from the cache")
	}
	checkBooks(t, snap)
}

// A hung backend execution is abandoned by the watchdog and fails with
// ErrWatchdog instead of wedging the worker forever.
func TestWatchdogAbandonsHungExecution(t *testing.T) {
	fb := newFaultBackend()
	fb.broken["student"] = "hang"
	fb.hangFor = 200 * time.Millisecond
	cfg := faultConfig()
	cfg.Watchdog = 20 * time.Millisecond
	s := newTestServer(t, fb, cfg)

	start := time.Now()
	_, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage()})
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("err = %v, want ErrWatchdog", err)
	}
	if waited := time.Since(start); waited > 150*time.Millisecond {
		t.Errorf("watchdog took %v to fire (limit 20ms)", waited)
	}
	snap := s.Snapshot()
	if snap.WatchdogTimeouts == 0 {
		t.Errorf("WatchdogTimeouts = 0; %+v", snap)
	}
	if len(fb.evictions()) == 0 {
		t.Error("hung variant was not evicted")
	}
}

// Consecutive failures trip the lane's breaker; with no fallback the server
// rejects with a BreakerOpenError carrying a Retry-After hint.
func TestBreakerOpensAndRejectsWithoutFallback(t *testing.T) {
	fb := newFaultBackend()
	fb.broken["student"] = "error"
	fb.fallback = "" // no fallback: open breaker means rejection
	cfg := faultConfig()
	cfg.BreakerThreshold = 2
	cfg.BreakerBackoff = time.Hour
	s := newTestServer(t, fb, cfg)

	for i := 0; i < 2; i++ {
		if _, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage()}); err == nil {
			t.Fatalf("request %d should fail", i)
		}
	}
	_, err := s.Detect(context.Background(), Request{Task: "patrol", Tenant: "junk", Image: testImage()})
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	for _, ts := range s.Snapshot().PerTenant {
		if ts.Tenant == "junk" {
			t.Errorf("breaker-refused request took a tenant row: %+v", ts)
		}
	}
	var bo *BreakerOpenError
	if !errors.As(err, &bo) {
		t.Fatalf("err %T is not *BreakerOpenError", err)
	}
	if bo.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", bo.RetryAfter)
	}
	snap := s.Snapshot()
	if snap.BreakerOpens != 1 || snap.RejectedBreaker == 0 {
		t.Errorf("breaker counters: opens=%d rejected=%d", snap.BreakerOpens, snap.RejectedBreaker)
	}
	found := false
	for _, lb := range snap.Breakers {
		if lb.Variant == "student" && lb.Task == "patrol" {
			found = true
			if lb.State != "open" {
				t.Errorf("lane state = %q, want open", lb.State)
			}
		}
	}
	if !found {
		t.Errorf("student/patrol lane missing from breaker snapshot: %+v", snap.Breakers)
	}
	// Unrelated lanes stay unaffected.
	if _, err := s.Detect(context.Background(), Request{Task: "inspect", Image: testImage()}); err != nil {
		t.Errorf("healthy lane collateral damage: %v", err)
	}
}

// With a fallback variant, an open breaker degrades traffic to the
// quantized generalist instead of failing it, and the result says so.
func TestBreakerOpenDegradesToFallback(t *testing.T) {
	fb := newFaultBackend()
	fb.broken["student"] = "panic"
	cfg := faultConfig()
	cfg.BreakerThreshold = 2
	cfg.BreakerBackoff = time.Hour
	s := newTestServer(t, fb, cfg)

	for i := 0; i < 2; i++ {
		if _, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage()}); !errors.Is(err, ErrBackendPanic) {
			t.Fatalf("request %d: err = %v, want ErrBackendPanic", i, err)
		}
	}
	res, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage()})
	if err != nil {
		t.Fatalf("degraded request failed: %v", err)
	}
	if res.Model != "model-gen" {
		t.Errorf("degraded request served by %q, want model-gen", res.Model)
	}
	if res.Degraded != DegradedBreakerOpen {
		t.Errorf("Degraded = %q, want %q", res.Degraded, DegradedBreakerOpen)
	}
	snap := s.Snapshot()
	if snap.DegradedRouted == 0 || snap.DegradedServed == 0 {
		t.Errorf("degraded counters: routed=%d served=%d", snap.DegradedRouted, snap.DegradedServed)
	}
}

// After the backoff elapses a half-open probe rides the real lane; when the
// variant has healed, the probe closes the breaker and traffic returns to
// the task-specific configuration.
func TestBreakerHalfOpenProbeHeals(t *testing.T) {
	fb := newFaultBackend()
	fb.broken["student"] = "error"
	cfg := faultConfig()
	cfg.BreakerThreshold = 1
	cfg.BreakerBackoff = 10 * time.Millisecond
	s := newTestServer(t, fb, cfg)

	if _, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage()}); err == nil {
		t.Fatal("first request should fail and trip the breaker")
	}
	// Heal the variant, wait out the backoff, and let the probe through.
	fb.mu.Lock()
	delete(fb.broken, "student")
	fb.mu.Unlock()
	time.Sleep(15 * time.Millisecond)

	res, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage()})
	if err != nil {
		t.Fatalf("probe request failed: %v", err)
	}
	if res.Model != "model-student" {
		t.Errorf("probe served by %q, want model-student", res.Model)
	}
	res, err = s.Detect(context.Background(), Request{Task: "patrol", Image: testImage()})
	if err != nil || res.Degraded != "" {
		t.Errorf("post-heal request: err=%v degraded=%q, want healthy primary", err, res.Degraded)
	}
	for _, lb := range s.Snapshot().Breakers {
		if lb.Variant == "student" && lb.State != "closed" {
			t.Errorf("healed lane state = %q, want closed", lb.State)
		}
	}
}

// A latency-SLO breach counts as a breaker failure, so a lane that goes
// slow (not down) still degrades to the fallback.
func TestLatencySLOBreachTripsBreaker(t *testing.T) {
	fb := newFaultBackend()
	fb.broken["student"] = "hang"
	fb.hangFor = 30 * time.Millisecond // slow, not hung
	cfg := faultConfig()
	cfg.BreakerThreshold = 2
	cfg.BreakerBackoff = time.Hour
	cfg.LatencySLO = 5 * time.Millisecond
	s := newTestServer(t, fb, cfg)

	for i := 0; i < 2; i++ {
		// The requests succeed — slowly.
		if _, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage()}); err != nil {
			t.Fatalf("slow request %d failed: %v", i, err)
		}
	}
	res, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage()})
	if err != nil {
		t.Fatalf("degraded request failed: %v", err)
	}
	if res.Degraded != DegradedBreakerOpen || res.Model != "model-gen" {
		t.Errorf("SLO breach did not degrade: model=%q degraded=%q", res.Model, res.Degraded)
	}
	if snap := s.Snapshot(); snap.SLOBreaches < 2 {
		t.Errorf("SLOBreaches = %d, want >= 2", snap.SLOBreaches)
	}
}

// Cancelling Detect's context before a worker takes the request must shed
// it instead of executing it for nobody.
func TestDetectCancelShedsQueuedRequest(t *testing.T) {
	fb := newFaultBackend()
	gb := chaos.Wrap(fb, chaos.Config{})
	s, err := New(gb, faultConfig())
	if err != nil {
		t.Fatal(err)
	}
	release := parkWorkers(t, s, gb, "inspect") // the request queues behind it

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Detect(ctx, Request{Task: "patrol", Image: testImage()})
		done <- err
	}()
	waitUntil(t, "the request to queue", func() bool { return s.Snapshot().QueueDepth == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Detect err = %v, want context.Canceled", err)
	}

	release()
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	if got := fb.executions("student"); got != 0 {
		t.Errorf("cancelled request executed anyway (%d executions)", got)
	}
	snap := s.Snapshot()
	if snap.ShedCancelled != 1 {
		t.Errorf("ShedCancelled = %d, want 1", snap.ShedCancelled)
	}
	checkBooks(t, snap)
}

// badShapeBackend validates images, mimicking the pipeline backend.
type badShapeBackend struct{ faultBackend }

func (b *badShapeBackend) ValidateImage(img *tensor.Tensor) error {
	if len(img.Shape) != 3 || img.Shape[0] != 3 {
		return fmt.Errorf("image shape %v, want (3,H,W)", img.Shape)
	}
	return nil
}

// Malformed input is refused at admission with ErrBadShape, before it can
// reach a kernel.
func TestBadShapeRejectedAtAdmission(t *testing.T) {
	fb := &badShapeBackend{*newFaultBackend()}
	cfg := faultConfig()
	s := newTestServer(t, fb, cfg)

	_, err := s.Detect(context.Background(), Request{Task: "patrol", Image: tensor.New(7)})
	if !errors.Is(err, ErrBadShape) {
		t.Fatalf("err = %v, want ErrBadShape", err)
	}
	if got := fb.executions("student"); got != 0 {
		t.Errorf("malformed request reached the backend (%d executions)", got)
	}
	if snap := s.Snapshot(); snap.RejectedShape != 1 {
		t.Errorf("RejectedShape = %d, want 1", snap.RejectedShape)
	}
	// A well-formed request still goes through.
	if _, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage()}); err != nil {
		t.Fatalf("valid request failed: %v", err)
	}
}

// A probe slot claimed at admission must also be released when the probing
// request is shed at execution time (cancelled or deadline-expired before
// invoke). Leaking it would pin the lane half-open with probing set: every
// future admit would deny, no execution could ever record an outcome, and
// the lane could never heal.
func TestProbeSlotReleasedWhenProbeShed(t *testing.T) {
	fb := newFaultBackend()
	gb := chaos.Wrap(fb, chaos.Config{})
	cfg := faultConfig()
	cfg.BreakerThreshold = 1
	cfg.BreakerBackoff = time.Millisecond
	s, err := New(gb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	release := parkWorkers(t, s, gb, "inspect") // the probe queues behind it
	key := laneKey("student", "patrol")

	// Trip the breaker directly, then let the backoff elapse so the next
	// admission claims the half-open probe slot.
	if opened := s.h.record(key, false, time.Now()); !opened {
		t.Fatal("breaker did not open")
	}
	time.Sleep(5 * time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Detect(ctx, Request{Task: "patrol", Image: testImage()})
		done <- err
	}()
	waitUntil(t, "the probe request to queue", func() bool { return s.Snapshot().QueueDepth == 1 })
	s.h.mu.Lock()
	claimed := s.h.lanes[key].probing
	s.h.mu.Unlock()
	if !claimed {
		t.Fatal("queued request did not claim the probe slot")
	}

	// Cancel the probe request while it is still queued, then free the
	// worker: execute must shed it and return the probe slot.
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Detect err = %v, want context.Canceled", err)
	}
	release()
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	if got := fb.executions("student"); got != 0 {
		t.Errorf("shed probe executed anyway (%d executions)", got)
	}
	if dec := s.h.admit(key, time.Now()); dec != admitProbe {
		t.Errorf("post-shed admit = %v, want admitProbe (slot released, lane can heal)", dec)
	}
}

// ctxBackend blocks every execution until its context is cancelled — a
// cooperative backend the watchdog can actually stop via ContextBackend.
type ctxBackend struct {
	faultBackend
	stopped chan struct{}
}

func (c *ctxBackend) DetectBatchContext(ctx context.Context, variant, task string, imgs []*tensor.Tensor) ([]any, string, error) {
	<-ctx.Done()
	c.stopped <- struct{}{}
	return nil, "", ctx.Err()
}

// When the backend implements ContextBackend, a watchdog-abandoned
// execution is cancelled instead of left running, and its abandoned-count
// is reaped once the goroutine exits.
func TestWatchdogCancelsContextBackend(t *testing.T) {
	cb := &ctxBackend{faultBackend: *newFaultBackend(), stopped: make(chan struct{}, 1)}
	cfg := faultConfig()
	cfg.Watchdog = 10 * time.Millisecond
	s := newTestServer(t, cb, cfg)

	if _, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage()}); !errors.Is(err, ErrWatchdog) {
		t.Fatalf("err = %v, want ErrWatchdog", err)
	}
	select {
	case <-cb.stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned execution never saw its context cancelled")
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.abandonedOn("student") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned count never reaped after the goroutine exited")
		}
		time.Sleep(time.Millisecond)
	}
}

// A variant whose executions hang uncancellably must not accumulate
// abandoned goroutines without bound: at maxAbandonedPerVariant the server
// fails new executions fast with ErrWatchdog instead of starting another.
func TestAbandonedExecutionsCappedPerVariant(t *testing.T) {
	fb := newFaultBackend()
	fb.broken["student"] = "hang"
	fb.hangFor = time.Hour // plain DetectBatch: cancellation cannot reach it
	cfg := faultConfig()
	cfg.Watchdog = 10 * time.Millisecond
	s := newTestServer(t, fb, cfg)

	for i := 0; i < maxAbandonedPerVariant; i++ {
		if _, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage()}); !errors.Is(err, ErrWatchdog) {
			t.Fatalf("request %d: err = %v, want ErrWatchdog", i, err)
		}
	}
	if got := fb.executions("student"); got != maxAbandonedPerVariant {
		t.Fatalf("executions = %d, want %d", got, maxAbandonedPerVariant)
	}
	// At the cap: fail fast, no new execution, still ErrWatchdog for the
	// breaker's accounting.
	if _, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage()}); !errors.Is(err, ErrWatchdog) {
		t.Fatalf("capped request: err = %v, want ErrWatchdog", err)
	}
	if got := fb.executions("student"); got != maxAbandonedPerVariant {
		t.Errorf("executions grew to %d past the abandoned cap %d", got, maxAbandonedPerVariant)
	}
	// The healthy lane is unaffected by the hung variant's cap.
	if _, err := s.Detect(context.Background(), Request{Task: "inspect", Image: testImage()}); err != nil {
		t.Errorf("healthy lane collateral damage: %v", err)
	}
}

// A probe slot claimed at admission must be released when the request then
// fails to enqueue, or the lane would be stuck half-open with no probe.
func TestProbeSlotReleasedOnEnqueueFailure(t *testing.T) {
	fb := newFaultBackend()
	fb.broken["student"] = "error"
	fb.fallback = ""
	cfg := faultConfig()
	cfg.BreakerThreshold = 1
	cfg.BreakerBackoff = time.Millisecond
	s, err := New(fb, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage()}); err == nil {
		t.Fatal("first request should trip the breaker")
	}
	time.Sleep(5 * time.Millisecond) // backoff elapses: next admit claims the probe
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// This submission claims the probe slot, then fails with
	// ErrShuttingDown; the slot must be released.
	if _, err := s.Submit(Request{Task: "patrol", Image: testImage()}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("err = %v, want ErrShuttingDown", err)
	}
	s.h.mu.Lock()
	br := s.h.lanes[laneKey("student", "patrol")]
	probing := br != nil && br.probing
	s.h.mu.Unlock()
	if probing {
		t.Error("probe slot leaked after enqueue failure")
	}
}
