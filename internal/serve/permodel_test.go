package serve

import (
	"context"
	"sync"
	"testing"

	"itask/internal/registry"
	"itask/internal/tensor"
)

// sinkBackend wraps fakeBackend with VariantHealthSink + RegistryStatser,
// recording verdicts.
type sinkBackend struct {
	*fakeBackend
	mu       sync.Mutex
	verdicts []string // "variant|reason"
	regStats registry.Stats
}

func (b *sinkBackend) VariantUnhealthy(variant, task, reason string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.verdicts = append(b.verdicts, variant+"|"+reason)
}

func (b *sinkBackend) RegistryStats() registry.Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.regStats
}

func (b *sinkBackend) seen() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.verdicts...)
}

// Completed requests are attributed to the model string the backend
// returned; registry stats surface in the snapshot.
func TestPerModelAttributionAndRegistryStats(t *testing.T) {
	fb := &sinkBackend{fakeBackend: newFakeBackend(), regStats: registry.Stats{Publishes: 3, Rollbacks: 1}}
	cfg := DefaultConfig()
	s := newTestServer(t, fb, cfg)

	for i := 0; i < 3; i++ {
		if _, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage()}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Detect(context.Background(), Request{Task: "triage", Image: testImage()}); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Registry == nil || snap.Registry.Publishes != 3 || snap.Registry.Rollbacks != 1 {
		t.Errorf("registry stats not surfaced: %+v", snap.Registry)
	}
	byModel := map[string]ModelStats{}
	for _, ms := range snap.PerModel {
		byModel[ms.Model] = ms
	}
	if got := byModel["model-for-patrol"]; got.Completed != 3 || got.MeanLatencyUS <= 0 {
		t.Errorf("patrol model stats = %+v, want 3 completed with latency", got)
	}
	if got := byModel["model-for-triage"]; got.Completed != 1 {
		t.Errorf("triage model stats = %+v, want 1 completed", got)
	}
}

// A panicking variant produces a health verdict (panic now, breaker-open
// once the lane trips) attributed to the exact variant, and per-model fault
// counters record the panics and terminal failures.
func TestPanicReportsVariantUnhealthy(t *testing.T) {
	fb := &sinkBackend{fakeBackend: newFakeBackend()}
	cfg := DefaultConfig()
	cfg.BreakerThreshold = 2
	s := newTestServer(t, &panicOnVariant{sinkBackend: fb, variant: "triage-student"}, cfg)

	for i := 0; i < 2; i++ {
		if _, err := s.Detect(context.Background(), Request{Task: "triage", Image: testImage()}); err == nil {
			t.Fatal("expected panic-induced failure")
		}
	}
	var panicVerdicts, breakerVerdicts int
	for _, v := range fb.seen() {
		switch v {
		case "triage-student|" + UnhealthyPanic:
			panicVerdicts++
		case "triage-student|" + UnhealthyBreaker:
			breakerVerdicts++
		}
	}
	if panicVerdicts != 2 || breakerVerdicts != 1 {
		t.Errorf("verdicts = %v, want 2 panic + 1 breaker for triage-student", fb.seen())
	}
	snap := s.Snapshot()
	var ms ModelStats
	for _, m := range snap.PerModel {
		if m.Model == "triage-student" {
			ms = m
		}
	}
	if ms.Panics != 2 || ms.Failed != 2 {
		t.Errorf("per-model stats = %+v, want 2 panics and 2 failed", ms)
	}
}

// panicOnVariant panics whenever the named variant executes.
type panicOnVariant struct {
	*sinkBackend
	variant string
}

func (b *panicOnVariant) DetectBatch(variant, task string, imgs []*tensor.Tensor) ([]any, string, error) {
	if variant == b.variant {
		panic("poisoned weights")
	}
	return b.sinkBackend.DetectBatch(variant, task, imgs)
}
