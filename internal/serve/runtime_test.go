package serve

import (
	"encoding/json"
	"runtime"
	"testing"

	"itask/internal/kernels"
)

// TestSnapshotReadsRuntimeMetrics: /metricsz carries the runtime's own
// account under "runtime" — GC cycles, heap allocations, CPU by class,
// goroutines and scheduling latency — and the int8 GEMM's body, read when
// the snapshot is taken. The
// request path does not read it: TestDetectCachedHitZeroAllocs still holds a
// cache hit to zero allocations.
func TestSnapshotReadsRuntimeMetrics(t *testing.T) {
	s := newTestServer(t, newFakeBackend(), DefaultConfig())
	runtime.GC()
	rt := s.Snapshot().Runtime
	if rt.GCCycles == 0 || rt.HeapAllocBytes == 0 || rt.HeapAllocObjects == 0 {
		t.Errorf("GC and heap counters not read: %+v", rt)
	}
	if rt.CPUGCSeconds <= 0 || rt.CPUUserSeconds <= 0 {
		t.Errorf("CPU classes not read: %+v", rt)
	}
	if rt.Goroutines < uint64(s.cfg.Workers) {
		t.Errorf("%d goroutines, fewer than the %d workers", rt.Goroutines, s.cfg.Workers)
	}
	if rt.SchedLatencyP50US < 0 || rt.SchedLatencyP99US < rt.SchedLatencyP50US {
		t.Errorf("scheduling latency p50 %v µs, p99 %v µs", rt.SchedLatencyP50US, rt.SchedLatencyP99US)
	}
	if rt.GemmI8Body != kernels.GemmI8Body() {
		t.Errorf("gemm_i8_body %q, the kernels run %q", rt.GemmI8Body, kernels.GemmI8Body())
	}
	later := s.Snapshot().Runtime
	if later.HeapAllocBytes < rt.HeapAllocBytes || later.GCCycles < rt.GCCycles {
		t.Errorf("runtime counters went backwards: %+v then %+v", rt, later)
	}

	b, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(top["runtime"], &fields); err != nil {
		t.Fatalf("no runtime object in /metricsz: %v", err)
	}
	for _, name := range []string{"gc_cycles", "heap_alloc_bytes", "heap_alloc_objects", "cpu_gc_seconds",
		"cpu_user_seconds", "cpu_idle_seconds", "cpu_scavenge_seconds", "goroutines",
		"sched_latency_p50_us", "sched_latency_p99_us", "gemm_i8_body"} {
		if _, ok := fields[name]; !ok {
			t.Errorf("runtime object lacks %q: %s", name, top["runtime"])
		}
	}
}
