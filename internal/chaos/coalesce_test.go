package chaos_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"itask/internal/chaos"
	"itask/internal/serve"
	"itask/internal/tensor"
)

// poisonImage returns an image that IS poison under b, nudging the content
// deterministically until the hash crosses the threshold.
func poisonImage(t *testing.T, b *chaos.Backend, i int) *tensor.Tensor {
	t.Helper()
	img := mkImage(2_000_000 + i)
	for n := 0; !b.IsPoison(img); n++ {
		if n > 1000 {
			t.Fatal("could not find a poison image in 1000 nudges")
		}
		img.Data[0]++
	}
	return img
}

// With the result cache and singleflight coalescing enabled, a storm of
// concurrent duplicates — half poison content, half clean — must satisfy the
// quarantine contract end to end: every poison duplicate fails with its own
// backend panic (a poisoned leader never fails a coalesced follower without
// re-execution, and a panic outcome is never shared as a result), every
// clean duplicate succeeds, and the poison verdict is never cached (a later
// poison submission still executes and still fails, while a later clean
// submission is served from cache).
func TestPoisonNeverCachedNorSharedWithFollowers(t *testing.T) {
	fixed := newFixed()
	// Every execution sleeps 10ms (LatencyRate 1), widening the in-flight
	// window so concurrent clean duplicates genuinely coalesce; poison
	// panics fire before the latency draw, so poison failures stay fast.
	cb := chaos.Wrap(fixed, chaos.Config{
		Seed:        7,
		PanicRate:   0.5,
		LatencyRate: 1,
		Latency:     10 * time.Millisecond,
	})
	cfg := serve.DefaultConfig()
	cfg.Workers = 2
	cfg.BreakerThreshold = 0
	cfg.Watchdog = 0
	s, err := serve.New(cb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	poison := poisonImage(t, cb, 0)
	clean := cleanImage(t, cb, 0)

	const dup = 6
	var wg sync.WaitGroup
	poisonErrs := make([]error, dup)
	cleanRes := make([]serve.Result, dup)
	cleanErrs := make([]error, dup)
	for i := 0; i < dup; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			_, poisonErrs[i] = s.Detect(context.Background(), serve.Request{Task: "patrol", Image: poison})
		}(i)
		go func(i int) {
			defer wg.Done()
			cleanRes[i], cleanErrs[i] = s.Detect(context.Background(), serve.Request{Task: "patrol", Image: clean})
		}(i)
	}
	wg.Wait()

	for i := 0; i < dup; i++ {
		if !errors.Is(poisonErrs[i], serve.ErrBackendPanic) {
			t.Errorf("poison duplicate %d: err = %v, want a backend panic of its own", i, poisonErrs[i])
		}
		if cleanErrs[i] != nil {
			t.Errorf("clean duplicate %d failed: %v — poison leaked into a coalesced follower", i, cleanErrs[i])
		}
	}

	// The poison verdict was never cached: a fresh submission still executes
	// (and still panics) instead of being served anything from memory.
	if _, err := s.Detect(context.Background(), serve.Request{Task: "patrol", Image: poison}); !errors.Is(err, serve.ErrBackendPanic) {
		t.Fatalf("later poison request: err = %v, want backend panic (nothing cacheable existed)", err)
	}
	// The clean result WAS cached: a fresh duplicate is a pure memory hit.
	res, err := s.Detect(context.Background(), serve.Request{Task: "patrol", Image: clean})
	if err != nil || !res.Cached {
		t.Fatalf("later clean request: (%+v, %v), want a cache hit", res, err)
	}

	snap := s.Snapshot()
	if snap.ResultCacheHits == 0 {
		t.Error("no cache hits recorded across the storm")
	}
	if snap.PanicsRecovered == 0 {
		t.Error("no recovered panics recorded — poison never executed?")
	}
}
