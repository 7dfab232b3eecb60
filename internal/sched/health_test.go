package sched

import (
	"testing"

	"itask/internal/geom"
	"itask/internal/registry"
	"itask/internal/tensor"
)

// registerPair registers a generalist and one student for task "patrol" on
// a fresh scheduler.
func registerPair(t *testing.T, budget int64) *Scheduler {
	t.Helper()
	detect := dummyDetect(0)
	s := New(budget)
	if err := s.Register(Model{Name: "gen", Kind: Generalist, Bytes: 400, Detect: detect}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(Model{Name: "patrol-student", Kind: TaskSpecific, Task: "patrol", Bytes: 600, Detect: detect}); err != nil {
		t.Fatal(err)
	}
	return s
}

// A variant that errors during serving must not stay cached as healthy:
// Evict drops it, and the next selection is a miss that reloads the
// weights from storage.
func TestEvictedVariantNotCachedAsHealthy(t *testing.T) {
	s := registerPair(t, 2000)
	m, err := s.SelectByName("patrol-student")
	if err != nil {
		t.Fatal(err)
	}
	id := m.ID.String()
	if got := s.Resident(); len(got) != 1 || got[0] != id {
		t.Fatalf("resident = %v, want [%s]", got, id)
	}
	before := s.Stats()

	// The serving layer saw the routed variant panic: quarantine its
	// resident weights. Evict accepts bare names as well as full IDs.
	if !s.Evict("patrol-student") {
		t.Fatal("Evict reported non-resident for a resident model")
	}
	for _, got := range s.Resident() {
		if got == id {
			t.Fatal("errored variant still resident after Evict")
		}
	}
	after := s.Stats()
	if after.QuarantineEvictions != before.QuarantineEvictions+1 {
		t.Errorf("QuarantineEvictions = %d, want %d", after.QuarantineEvictions, before.QuarantineEvictions+1)
	}
	if after.Evictions != before.Evictions {
		t.Errorf("LRU Evictions = %d, want %d (quarantine must not count as budget churn)",
			after.Evictions, before.Evictions)
	}

	// Re-selecting must be a miss (fresh load), not a hit on the stale
	// entry.
	if _, err := s.SelectByName("patrol-student"); err != nil {
		t.Fatal(err)
	}
	final := s.Stats()
	if final.Misses != after.Misses+1 {
		t.Errorf("reload after evict: Misses = %d, want %d", final.Misses, after.Misses+1)
	}
	if final.BytesLoaded != after.BytesLoaded+600 {
		t.Errorf("BytesLoaded = %d, want %d (weights re-fetched)", final.BytesLoaded, after.BytesLoaded+600)
	}

	// Evicting a non-resident or unknown model is a no-op.
	if s.Evict("patrol-student-again") {
		t.Error("Evict reported true for unknown model")
	}
}

// Evicting one variant must not disturb other residents or the budget
// accounting: the freed bytes are reusable.
func TestEvictFreesBudgetForOthers(t *testing.T) {
	s := registerPair(t, 1000) // gen(400) + student(600) exactly fill it
	if _, err := s.SelectByName("gen"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SelectByName("patrol-student"); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Resident()); got != 2 {
		t.Fatalf("resident count = %d, want 2", got)
	}
	quarantinedBefore := s.Stats().QuarantineEvictions
	s.Evict("patrol-student")
	// Reloading the student must now fit without LRU-evicting gen.
	if _, err := s.SelectByName("patrol-student"); err != nil {
		t.Fatal(err)
	}
	resident := s.Resident()
	if len(resident) != 2 {
		t.Fatalf("resident = %v, want both models", resident)
	}
	st := s.Stats()
	if st.QuarantineEvictions != quarantinedBefore+1 {
		t.Errorf("QuarantineEvictions = %d, want %d (only the explicit one)", st.QuarantineEvictions, quarantinedBefore+1)
	}
	if st.Evictions != 0 {
		t.Errorf("LRU Evictions = %d, want 0 (the freed bytes made room)", st.Evictions)
	}
}

// SelectByName on an unknown variant errors without touching the cache.
func TestSelectByNameUnknownLeavesCacheAlone(t *testing.T) {
	s := registerPair(t, 2000)
	if _, err := s.SelectByName("nope"); err == nil {
		t.Fatal("expected error for unknown variant")
	}
	if st := s.Stats(); st.Hits+st.Misses != 0 {
		t.Errorf("cache touched by failed selection: %+v", st)
	}
	if got := s.Resident(); len(got) != 0 {
		t.Errorf("resident = %v, want empty", got)
	}
}

// RouteFallback names the generalist even when a task-specific student
// exists, and errors when none is registered or it cannot fit.
func TestRouteFallbackPrefersGeneralist(t *testing.T) {
	s := registerPair(t, 2000)
	variant, err := s.RouteFallback(Request{Task: "patrol"})
	if err != nil {
		t.Fatal(err)
	}
	// RouteFallback pins a full artifact ID; it must resolve to the
	// generalist.
	m, ok := s.Lookup(variant)
	if !ok || m.Name != "gen" || m.Kind != Generalist {
		t.Errorf("fallback = %q (resolved %+v), want the generalist", variant, m)
	}
	// Latency budget applies to the fallback too.
	s2 := New(2000)
	if err := s2.Register(Model{Name: "gen", Kind: Generalist, Bytes: 400, LatencyUS: 500,
		Detect: dummyDetect(0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.RouteFallback(Request{Task: "patrol", LatencyBudgetUS: 100}); err == nil {
		t.Error("over-budget fallback should be refused")
	}
	// No generalist at all.
	s3 := New(2000)
	if _, err := s3.RouteFallback(Request{Task: "patrol"}); err == nil {
		t.Error("fallback without generalist should error")
	}
}

// DetectBatchOn pins execution to the named variant regardless of the
// scheduler's routing preference.
func TestDetectBatchOnForcesVariant(t *testing.T) {
	var genCalls, studentCalls int
	s := New(2000)
	mk := func(counter *int) registry.BatchDetectFunc {
		return func(imgs []*tensor.Tensor) [][]geom.Scored {
			*counter += len(imgs)
			return make([][]geom.Scored, len(imgs))
		}
	}
	if err := s.Register(Model{Name: "gen", Kind: Generalist, Bytes: 400, Detect: mk(&genCalls)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(Model{Name: "patrol-student", Kind: TaskSpecific, Task: "patrol", Bytes: 600, Detect: mk(&studentCalls)}); err != nil {
		t.Fatal(err)
	}
	imgs := []*tensor.Tensor{tensor.New(1), tensor.New(1)}
	// Routing prefers the student, but the degraded lane pins gen.
	dets, m, err := s.DetectBatchOn("gen", imgs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "gen" || genCalls != 2 || studentCalls != 0 {
		t.Errorf("forced variant: model=%q gen=%d student=%d", m.Name, genCalls, studentCalls)
	}
	if len(dets) != len(imgs) {
		t.Errorf("detections for %d images, want %d", len(dets), len(imgs))
	}
	if _, _, err := s.DetectBatchOn("missing", imgs); err == nil {
		t.Error("unknown variant should error")
	}
}
