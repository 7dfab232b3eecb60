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

	"itask/internal/chaos"
	"itask/internal/sched"
	"itask/internal/tensor"
)

// fakeBackend is a controllable backend: routing maps task -> variant, and
// DetectBatch records each execution (by its images' first pixels, which
// tests use as marks), optionally sleeps, and returns the image index as
// payload.
type fakeBackend struct {
	mu       sync.Mutex
	variants map[string]string
	batches  [][]float32
	delay    time.Duration
	fail     error
	stats    sched.CacheStats
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{variants: map[string]string{"patrol": "gen", "inspect": "gen", "triage": "triage-student"}}
}

func (f *fakeBackend) Route(task string) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.variants[task]
	if !ok {
		return "", fmt.Errorf("fake: unknown task %q", task)
	}
	return v, nil
}

func (f *fakeBackend) DetectBatch(variant, task string, imgs []*tensor.Tensor) ([]any, string, error) {
	marks := make([]float32, len(imgs))
	for i, img := range imgs {
		marks[i] = img.Data[0]
	}
	f.mu.Lock()
	f.batches = append(f.batches, marks)
	delay, fail := f.delay, f.fail
	f.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if fail != nil {
		return nil, "", fail
	}
	out := make([]any, len(imgs))
	for i := range imgs {
		out[i] = i
	}
	f.mu.Lock()
	f.stats.Hits++
	f.mu.Unlock()
	return out, "model-for-" + task, nil
}

func (f *fakeBackend) CacheStats() sched.CacheStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// seen returns the executions so far, in the order they began.
func (f *fakeBackend) seen() [][]float32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([][]float32(nil), f.batches...)
}

// count is the number of executions begun so far.
func (f *fakeBackend) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.batches)
}

func (f *fakeBackend) sizes() []int {
	var sizes []int
	for _, b := range f.seen() {
		sizes = append(sizes, len(b))
	}
	return sizes
}

func testImage() *tensor.Tensor { return tensor.New(3, 4, 4) }

// markedImage is a test image whose first pixel carries mark through to
// fakeBackend.seen.
func markedImage(mark float32) *tensor.Tensor {
	img := testImage()
	img.Data[0] = mark
	return img
}

// parkWorkers holds every worker of s inside a backend execution — one plug
// request for task each — so that whatever the test admits next stays
// queued, exactly as it would behind real load, until the returned release
// is called (test cleanup calls it too). The plugs are ordinary requests:
// each is accepted, runs once released, and has completed when release
// returns. b must be the backend s was built on.
func parkWorkers(t *testing.T, s *Server, b *chaos.Backend, task string) (release func()) {
	t.Helper()
	var plugs []<-chan Outcome
	open := b.Park(s.cfg.Workers, func() {
		ch, err := s.Submit(Request{Task: task, Image: testImage()})
		if err != nil {
			t.Fatalf("plug request: %v", err)
		}
		plugs = append(plugs, ch)
	})
	release = func() {
		open()
		for _, ch := range plugs {
			<-ch
		}
		plugs = nil
	}
	t.Cleanup(release)
	return release
}

// waitUntil polls cond until it holds, failing the test after five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func newTestServer(t *testing.T, b Backend, cfg Config) *Server {
	t.Helper()
	s, err := New(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func TestDetectRoundTrip(t *testing.T) {
	fb := newFakeBackend()
	cfg := DefaultConfig()
	s := newTestServer(t, fb, cfg)

	res, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "model-for-patrol" {
		t.Errorf("model = %q", res.Model)
	}
	if res.BatchSize != 1 {
		t.Errorf("batch size = %d, want 1", res.BatchSize)
	}
	if res.Payload.(int) != 0 {
		t.Errorf("payload = %v", res.Payload)
	}
	snap := s.Snapshot()
	if snap.Accepted != 1 || snap.Completed != 1 {
		t.Errorf("snapshot counters: %+v", snap)
	}
	if snap.Cache == nil || snap.CacheHitRate != 1 {
		t.Errorf("cache stats not surfaced: %+v", snap.Cache)
	}
	if snap.LatencyP50US <= 0 {
		t.Errorf("p50 latency not recorded")
	}
}

func TestUnknownTaskRejectedAtAdmission(t *testing.T) {
	s := newTestServer(t, newFakeBackend(), DefaultConfig())
	_, err := s.Detect(context.Background(), Request{Task: "nope", Tenant: "junk", Image: testImage()})
	if err == nil {
		t.Fatal("expected routing error")
	}
	snap := s.Snapshot()
	if snap.RejectedRoute != 1 {
		t.Errorf("RejectedRoute = %d, want 1", snap.RejectedRoute)
	}
	// The tenant table is bounded: a name that was never admitted takes no row.
	if len(snap.PerTenant) != 0 {
		t.Errorf("unroutable request left tenant rows %+v", snap.PerTenant)
	}
}

func TestNilImageRejected(t *testing.T) {
	s := newTestServer(t, newFakeBackend(), DefaultConfig())
	if _, err := s.Submit(Request{Task: "patrol"}); err == nil {
		t.Fatal("expected nil-image error")
	}
}

func TestConfigValidation(t *testing.T) {
	fb := newFakeBackend()
	base := DefaultConfig()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero workers", func(c *Config) { c.Workers = 0 }},
		{"negative workers", func(c *Config) { c.Workers = -1 }},
		{"zero queue", func(c *Config) { c.QueueCap = 0 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := New(fb, cfg); err == nil {
			t.Errorf("%s: New accepted invalid config", tc.name)
		}
	}
	if _, err := New(nil, base); err == nil {
		t.Error("New accepted nil backend")
	}
	// One parallelism axis: the default worker count is the compute width.
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got := DefaultConfig().Workers
		runtime.GOMAXPROCS(prev)
		if got != procs {
			t.Errorf("GOMAXPROCS=%d: DefaultConfig().Workers = %d, want %d", procs, got, procs)
		}
	}
}

func TestBackendErrorPropagates(t *testing.T) {
	fb := newFakeBackend()
	fb.fail = errors.New("boom")
	cfg := DefaultConfig()
	s := newTestServer(t, fb, cfg)
	_, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage()})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
	if snap := s.Snapshot(); snap.Failed != 1 {
		t.Errorf("Failed = %d, want 1", snap.Failed)
	}
}

// TestCoalescing drives a burst through one slow worker: the requests queue
// behind it, and still each executes alone — nothing coalesces them into a
// batch, so no answer depends on what else was queued.
func TestCoalescing(t *testing.T) {
	fb := newFakeBackend()
	fb.delay = 20 * time.Millisecond
	cfg := Config{Workers: 1, QueueCap: 64}
	s := newTestServer(t, fb, cfg)

	const n = 16
	var wg sync.WaitGroup
	var queued atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage()})
			if err != nil {
				t.Errorf("detect: %v", err)
				return
			}
			if res.BatchSize != 1 {
				t.Errorf("batch size %d, want 1", res.BatchSize)
			}
			if res.Queued > fb.delay/2 {
				queued.Add(1)
			}
		}()
	}
	wg.Wait()
	if queued.Load() == 0 {
		t.Fatal("no request waited behind the busy worker; the burst never queued")
	}
	for _, sz := range fb.sizes() {
		if sz != 1 {
			t.Fatalf("backend executions %v, want one image each", fb.sizes())
		}
	}
	if snap := s.Snapshot(); snap.Batches != n || len(snap.BatchHist) != 1 || snap.BatchHist[0] != n {
		t.Errorf("batches %d, batch_hist %v, want %d executions of one", snap.Batches, snap.BatchHist, n)
	}
}

// Requests for different tasks queued together are each served by their own
// task's model.
func TestNoCrossTaskCoalescing(t *testing.T) {
	fb := newFakeBackend()
	fb.delay = 10 * time.Millisecond
	cfg := Config{Workers: 1, QueueCap: 64}
	s := newTestServer(t, fb, cfg)

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		task := "patrol"
		if i%2 == 1 {
			task = "triage"
		}
		wg.Add(1)
		go func(task string) {
			defer wg.Done()
			res, err := s.Detect(context.Background(), Request{Task: task, Image: testImage()})
			if err != nil {
				t.Errorf("detect %s: %v", task, err)
				return
			}
			if want := "model-for-" + task; res.Model != want {
				t.Errorf("task %s served by %s", task, res.Model)
			}
		}(task)
	}
	wg.Wait()
}
