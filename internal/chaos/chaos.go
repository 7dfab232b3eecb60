// Package chaos is iTask's fault-injection harness: a serving backend
// wrapper that injects panics, errors, latency, and payload corruption at
// configurable, fully seeded rates. It exists to drive deterministic tests
// of the serving layer's fault-tolerance machinery — panic isolation,
// poison-request quarantine, circuit breaking, watchdog deadlines, and
// quantized-fallback degradation — without depending on real kernel bugs.
//
// Two injection styles are provided, chosen for determinism:
//
//   - Per-request poison (Config.PanicRate): whether a request is poison is
//     a pure function of its image content and the seed (an FNV hash of the
//     pixel bits), so the poison set of a workload is identical across
//     runs, goroutine schedules, batch compositions, and retries. Executing
//     any batch that contains a poison image panics — exactly the behaviour
//     of a shape- or value-dependent kernel bug.
//   - Per-execution draws (Config.ErrorRate, LatencyRate, CorruptRate):
//     drawn from a seeded PRNG guarded by a mutex. Deterministic given a
//     serial call order (one worker); under concurrency the draw sequence
//     depends on scheduling, so tests that need exact reproducibility
//     should prefer the per-request style or a single worker.
//
// The serving layer's workers take queued requests the moment they are free,
// so a test that needs a particular queue first needs busy workers: Park
// holds every worker inside an execution until the test releases them.
//
// Backend implements the serving layer's Backend, ContextBackend,
// FallbackRouter, VariantEvicter, ImageValidator, and CacheStatser
// contracts structurally (delegating the optional ones to the inner backend
// when it implements them), so it can be dropped between any server and
// backend unchanged. Injected hangs and latency sleeps honor execution-
// context cancellation, so the server's watchdog can actually stop them.
package chaos

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"itask/internal/sched"
	"itask/internal/tensor"
)

// FaultMode is a forced failure style for Break.
type FaultMode int

const (
	// FaultPanic makes every execution on the broken variant panic.
	FaultPanic FaultMode = iota
	// FaultError makes every execution return an error.
	FaultError
	// FaultHang makes every execution sleep Config.HangFor before
	// returning normally — watchdog bait.
	FaultHang
)

func (m FaultMode) String() string {
	switch m {
	case FaultPanic:
		return "panic"
	case FaultError:
		return "error"
	default:
		return "hang"
	}
}

// Config sets the injection rates. All rates are probabilities in [0,1];
// zero disables that fault class.
type Config struct {
	// Seed drives both the per-request poison hash and the per-execution
	// PRNG. Same seed + same workload = same poison set.
	Seed uint64
	// PanicRate is the per-request probability that an image is poison:
	// executing any batch containing it panics. Keyed by image content, so
	// it is deterministic per request (see the package comment).
	PanicRate float64
	// ErrorRate is the per-execution probability of a clean error return.
	ErrorRate float64
	// LatencyRate is the per-execution probability of sleeping Latency
	// before executing.
	LatencyRate float64
	// Latency is the injected sleep for LatencyRate draws.
	Latency time.Duration
	// CorruptRate is the per-execution probability of returning a
	// truncated payload slice (len(payloads) != len(imgs)) — the
	// wrong-cardinality corruption the serving layer detects and treats as
	// a batch failure.
	CorruptRate float64
	// HangFor is how long FaultHang executions sleep (default 1s).
	HangFor time.Duration
}

// Stats counts what the injector actually did, for test assertions.
type Stats struct {
	Executions   int
	PoisonPanics int
	ForcedFaults int
	Errors       int
	Latencies    int
	Corruptions  int
	Evictions    int
}

// Backend wraps an inner serving backend with fault injection. Safe for
// concurrent use.
type Backend struct {
	inner inner
	cfg   Config

	mu     sync.Mutex
	rng    uint64 // splitmix64 state for per-execution draws
	broken map[string]FaultMode
	stats  Stats
	// gate is non-nil while Park holds executions; arrived receives one
	// token per execution that reaches it.
	gate    chan struct{}
	arrived chan struct{}
}

// inner is the structural contract of the wrapped backend (the serving
// layer's Backend shape, without importing it).
type inner interface {
	Route(task string) (string, error)
	DetectBatch(variant, task string, imgs []*tensor.Tensor) ([]any, string, error)
}

// Wrap builds a fault-injecting backend around inner.
func Wrap(in inner, cfg Config) *Backend {
	if cfg.HangFor <= 0 {
		cfg.HangFor = time.Second
	}
	return &Backend{
		inner:  in,
		cfg:    cfg,
		rng:    cfg.Seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
		broken: map[string]FaultMode{},
	}
}

// Break forces every execution on variant to fail with the given mode
// until Heal — how tests trip a lane's circuit breaker on demand.
func (b *Backend) Break(variant string, mode FaultMode) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.broken[variant] = mode
}

// Heal removes a forced failure installed by Break.
func (b *Backend) Heal(variant string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.broken, variant)
}

// Park builds a queue behind busy workers, deterministically: it closes a
// gate in front of every execution and calls submit once per worker, waiting
// after each call until the execution it caused is parked at the gate.
// submit must put one request into the server.
// With every worker parked, whatever the test admits next stays queued until
// it calls the returned release, which opens the gate for good (calling it
// again does nothing). Parked executions honor context cancellation like
// injected hangs do.
func (b *Backend) Park(workers int, submit func()) (release func()) {
	gate := make(chan struct{})
	arrived := make(chan struct{}, workers) // one token per submit
	b.mu.Lock()
	b.gate, b.arrived = gate, arrived
	b.mu.Unlock()
	for i := 0; i < workers; i++ {
		submit()
		<-arrived
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			b.mu.Lock()
			b.gate = nil
			b.mu.Unlock()
			close(gate)
		})
	}
}

// Stats returns a copy of the injection counters.
func (b *Backend) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// IsPoison reports whether img is a poison request under this backend's
// seed and PanicRate — a pure function of the pixel bits, so tests can
// compute the expected poison set of a workload up front.
func (b *Backend) IsPoison(img *tensor.Tensor) bool {
	return IsPoison(b.cfg.Seed, b.cfg.PanicRate, img)
}

// IsPoison is the deterministic poison predicate: an FNV-1a hash of the
// seed and the image's float bits, thresholded at rate.
func IsPoison(seed uint64, rate float64, img *tensor.Tensor) bool {
	if rate <= 0 || img == nil {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := fnv.New64a()
	var buf [8]byte
	putU64(buf[:], seed)
	h.Write(buf[:])
	for _, v := range img.Data {
		putU64(buf[:], uint64(math.Float32bits(v)))
		h.Write(buf[:])
	}
	// Map the hash onto [0,1) and threshold.
	const scale = 1 << 53
	u := float64(h.Sum64()>>11) / scale
	return u < rate
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// draw advances the seeded PRNG and reports whether a rate-gated event
// fires. splitmix64: tiny, seedable, and good enough for fault injection.
func (b *Backend) draw(rate float64, counter *int) bool {
	if rate <= 0 {
		return false
	}
	b.mu.Lock()
	b.rng += 0x9e3779b97f4a7c15
	z := b.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	fire := float64(z>>11)/(1<<53) < rate
	if fire {
		*counter++
	}
	b.mu.Unlock()
	return fire
}

// Route delegates to the inner backend untouched: chaos lives in
// execution, not routing.
func (b *Backend) Route(task string) (string, error) { return b.inner.Route(task) }

// RouteFallback delegates when the inner backend offers a fallback and
// reports none otherwise.
func (b *Backend) RouteFallback(task string) (string, error) {
	if fr, ok := b.inner.(interface{ RouteFallback(string) (string, error) }); ok {
		return fr.RouteFallback(task)
	}
	return "", fmt.Errorf("chaos: inner backend has no fallback")
}

// EvictVariant records the eviction and delegates when supported.
func (b *Backend) EvictVariant(variant string) {
	b.mu.Lock()
	b.stats.Evictions++
	b.mu.Unlock()
	if ev, ok := b.inner.(interface{ EvictVariant(string) }); ok {
		ev.EvictVariant(variant)
	}
}

// ValidateImage delegates when the inner backend validates shapes.
func (b *Backend) ValidateImage(img *tensor.Tensor) error {
	if v, ok := b.inner.(interface{ ValidateImage(*tensor.Tensor) error }); ok {
		return v.ValidateImage(img)
	}
	return nil
}

// CacheStats delegates when the inner backend exposes cache stats.
func (b *Backend) CacheStats() sched.CacheStats {
	if cs, ok := b.inner.(interface{ CacheStats() sched.CacheStats }); ok {
		return cs.CacheStats()
	}
	return sched.CacheStats{}
}

// DetectBatch injects faults in order — forced Break mode, poison panic,
// error draw, latency draw — then delegates to the inner backend and
// finally applies payload corruption to the successful result.
func (b *Backend) DetectBatch(variant, task string, imgs []*tensor.Tensor) ([]any, string, error) {
	return b.DetectBatchContext(context.Background(), variant, task, imgs)
}

// DetectBatchContext is the cancellation-aware execution path (the serving
// layer's serve.ContextBackend): injected hangs and latency sleeps end
// early with ctx.Err() when ctx is cancelled, so a watchdog-abandoned
// execution stops instead of leaking a sleeping goroutine. The inner
// backend's own context support is used when it has any.
func (b *Backend) DetectBatchContext(ctx context.Context, variant, task string, imgs []*tensor.Tensor) ([]any, string, error) {
	b.mu.Lock()
	gate, arrived := b.gate, b.arrived
	b.mu.Unlock()
	if gate != nil {
		select {
		case arrived <- struct{}{}:
		default: // past the executions Park counts: parked all the same
		}
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, "", ctx.Err()
		}
	}
	b.mu.Lock()
	b.stats.Executions++
	mode, forced := b.broken[variant]
	hang := b.cfg.HangFor
	if forced {
		b.stats.ForcedFaults++
	}
	b.mu.Unlock()
	if forced {
		switch mode {
		case FaultPanic:
			panic(fmt.Sprintf("chaos: variant %q forced panic", variant))
		case FaultError:
			return nil, "", fmt.Errorf("chaos: variant %q forced error", variant)
		case FaultHang:
			if !sleepCtx(ctx, hang) {
				return nil, "", ctx.Err()
			}
		}
	}
	for i, img := range imgs {
		if b.IsPoison(img) {
			b.mu.Lock()
			b.stats.PoisonPanics++
			b.mu.Unlock()
			panic(fmt.Sprintf("chaos: poison request at batch index %d/%d", i, len(imgs)))
		}
	}
	if b.draw(b.cfg.ErrorRate, &b.stats.Errors) {
		return nil, "", fmt.Errorf("chaos: injected error on variant %q", variant)
	}
	if b.draw(b.cfg.LatencyRate, &b.stats.Latencies) {
		if !sleepCtx(ctx, b.cfg.Latency) {
			return nil, "", ctx.Err()
		}
	}
	var payloads []any
	var model string
	var err error
	if cb, ok := b.inner.(interface {
		DetectBatchContext(context.Context, string, string, []*tensor.Tensor) ([]any, string, error)
	}); ok {
		payloads, model, err = cb.DetectBatchContext(ctx, variant, task, imgs)
	} else {
		payloads, model, err = b.inner.DetectBatch(variant, task, imgs)
	}
	if err != nil {
		return payloads, model, err
	}
	if len(payloads) > 0 && b.draw(b.cfg.CorruptRate, &b.stats.Corruptions) {
		payloads = payloads[:len(payloads)-1]
	}
	return payloads, model, nil
}

// sleepCtx sleeps for d, reporting false when ctx is cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Fixed is a minimal healthy backend for chaos tests and demos: a static
// task→variant routing table, a designated fallback variant, and payloads
// that echo the batch index. It records per-variant execution and eviction
// counts. Safe for concurrent use.
type Fixed struct {
	mu       sync.Mutex
	variants map[string]string
	fallback string
	execs    map[string]int
	evicted  map[string]int
}

// NewFixed builds a Fixed backend. variants maps task names to their
// preferred variant; fallback (may be "") is returned by RouteFallback for
// every task.
func NewFixed(variants map[string]string, fallback string) *Fixed {
	cp := make(map[string]string, len(variants))
	for k, v := range variants {
		cp[k] = v
	}
	return &Fixed{
		variants: cp,
		fallback: fallback,
		execs:    map[string]int{},
		evicted:  map[string]int{},
	}
}

func (f *Fixed) Route(task string) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.variants[task]
	if !ok {
		return "", fmt.Errorf("chaos: unknown task %q", task)
	}
	return v, nil
}

func (f *Fixed) RouteFallback(task string) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fallback == "" {
		return "", fmt.Errorf("chaos: no fallback configured")
	}
	return f.fallback, nil
}

func (f *Fixed) DetectBatch(variant, task string, imgs []*tensor.Tensor) ([]any, string, error) {
	f.mu.Lock()
	f.execs[variant]++
	f.mu.Unlock()
	out := make([]any, len(imgs))
	for i := range imgs {
		out[i] = i
	}
	return out, variant, nil
}

func (f *Fixed) EvictVariant(variant string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.evicted[variant]++
}

// Executions reports how many batches ran on variant.
func (f *Fixed) Executions(variant string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.execs[variant]
}

// Evictions reports how often variant was evicted.
func (f *Fixed) Evictions(variant string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.evicted[variant]
}
