package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"itask/internal/tensor"
)

// chaosBackend sleeps per execution (so latency is execution-shaped, not
// instant) and panics on a poison-marked image.
type chaosBackend struct {
	mu       sync.Mutex
	variants map[string]string
	delay    time.Duration
}

func (c *chaosBackend) Route(task string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.variants[task]
	if !ok {
		return "", fmt.Errorf("chaos: unknown task %q", task)
	}
	return v, nil
}

func (c *chaosBackend) DetectBatch(variant, task string, imgs []*tensor.Tensor) ([]any, string, error) {
	time.Sleep(c.delay)
	for _, img := range imgs {
		if len(img.Data) > 0 && img.Data[0] == poisonMark {
			panic("chaos: poison image")
		}
	}
	out := make([]any, len(imgs))
	for i := range imgs {
		out[i] = i
	}
	return out, "model-" + variant, nil
}

// The chaos acceptance scenario: tenant A sends 10% poison-pill
// content at 3x tenant B's rate while B runs a steady workload on its own
// task. B must observe zero failures and a p99 no worse than 1.5x its solo
// baseline (plus a small absolute noise floor for CI schedulers).
func TestTenantChaosIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos run")
	}
	cb := &chaosBackend{
		variants: map[string]string{"patrol": "gen", "triage": "triage-student"},
		delay:    time.Millisecond,
	}
	cfg := Config{
		Workers: 4, QueueCap: 64,
		TenantWeights: map[string]int{"a": 1, "b": 1},
	}
	s := newTestServer(t, cb, cfg)

	const (
		// Long enough phases that B's p99 rides on ~400 samples: a 1%
		// tail then tolerates the handful of multi-slice scheduler stalls
		// an oversubscribed single-core CI runner injects at random —
		// with 2 minutes of samples those stalls land in both phases and
		// cancel; with 200 they land in one and decide the verdict.
		phase  = 2500 * time.Millisecond
		bPace  = 6 * time.Millisecond
		aProcs = 3 // 3 submitters at B's pace = 3x B's rate
	)

	// runB paces tenant B's steady workload and returns its latencies;
	// every B error is a test failure (the zero-failure criterion).
	runB := func(label string) []time.Duration {
		var lats []time.Duration
		runtime.GC() // don't bill earlier tests' garbage to this phase
		deadline := time.Now().Add(phase)
		for time.Now().Before(deadline) {
			start := time.Now()
			res, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage(), Tenant: "b"})
			if err != nil {
				t.Fatalf("%s: tenant b request failed: %v", label, err)
			}
			if res.Tenant != "b" {
				t.Fatalf("%s: tenant b result attributed to %q", label, res.Tenant)
			}
			lats = append(lats, time.Since(start))
			time.Sleep(bPace)
		}
		return lats
	}
	p99 := func(lats []time.Duration) time.Duration {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return lats[int(float64(len(lats))*0.99)]
	}

	// Phase 1: B alone, to establish the solo baseline.
	solo := runB("solo")
	soloP99 := p99(solo)

	// Phase 2: A floods its own task at 3x B's rate with every 10th image
	// a poison pill, while B repeats the same steady workload.
	var stop atomic.Bool
	var aOK, aFail atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < aProcs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				img := testImage()
				if i%10 == 0 {
					img.Data[0] = poisonMark
				}
				_, err := s.Detect(context.Background(), Request{Task: "triage", Image: img, Tenant: "a"})
				if err == nil {
					aOK.Add(1)
				} else if errors.Is(err, ErrBackendPanic) || errors.Is(err, ErrQueueFull) {
					aFail.Add(1)
				} else {
					t.Errorf("tenant a unexpected error: %v", err)
					return
				}
				time.Sleep(bPace)
			}
		}()
	}
	chaos := runB("chaos")
	stop.Store(true)
	wg.Wait()
	chaosP99 := p99(chaos)

	if len(solo) < 50 || len(chaos) < 50 {
		t.Fatalf("too few B samples to judge p99: solo=%d chaos=%d", len(solo), len(chaos))
	}
	if aFail.Load() == 0 {
		t.Errorf("tenant a saw no failures; poison never fired (ok=%d)", aOK.Load())
	}
	if aOK.Load() < int64(2*len(chaos)) {
		t.Errorf("tenant a completed %d vs b %d; chaos load was not ~3x", aOK.Load(), len(chaos))
	}
	// 5ms absolute slack absorbs scheduler noise on loaded CI runners
	// (one-core boxes hand out 10ms preemption slices, so a wake-up can
	// eat a slice through no fault of the scheduler under test); the
	// ratio criterion is the ISSUE's 1.5x.
	limit := soloP99 + soloP99/2 + 5*time.Millisecond
	if chaosP99 > limit {
		t.Errorf("tenant b chaos p99 %v exceeds 1.5x solo baseline %v (limit %v)", chaosP99, soloP99, limit)
	}

	snap := s.Snapshot()
	for _, ts := range snap.PerTenant {
		if ts.Tenant == "b" && ts.Failed != 0 {
			t.Errorf("tenant b Failed = %d, want 0", ts.Failed)
		}
		if ts.Tenant == "a" && ts.Failed == 0 {
			t.Errorf("tenant a Failed = 0, want poison failures recorded")
		}
	}
}
