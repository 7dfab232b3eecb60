package itask

import (
	"context"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"itask/internal/geom"
	"itask/internal/registry"
	"itask/internal/serve"
	"itask/internal/tensor"
	"itask/internal/vit"
)

// poisonStudent is a bad new "patrol-student" version: it panics whenever it
// executes a coalesced batch (single-image batches pass, returning nothing,
// so the test's zero-failure guarantee is deterministic — the serve layer
// demotes the version synchronously on the first panic, before any bisected
// retry or later batch can fail terminally on it).
func poisonStudent() registry.Artifact {
	return registry.Artifact{
		Name: "patrol-student", Kind: registry.TaskSpecific, Task: "patrol",
		Bytes: 1 << 16, LatencyUS: 50,
		Detect: func(imgs []*tensor.Tensor) [][]geom.Scored {
			if len(imgs) >= 2 {
				panic("poisoned weights")
			}
			return make([][]geom.Scored, len(imgs))
		},
	}
}

// The headline hot-swap proof: sustained concurrent serve traffic across
// repeated publish/rollback cycles — healthy student republishes alternating
// with poisoned versions that panic under load — completes every request.
// Each bad version is health-evicted and automatically rolled back to the
// last-known-good version (visible in the registry counters and the
// per-version /metricsz attribution), batches pinned to the demoted version
// transparently re-resolve to the restored one, and no request ever fails.
// Run under -race to also prove the snapshot swaps never tear.
func TestHotSwapUnderLoad(t *testing.T) {
	opts := DefaultOptions()
	rng := tensor.NewRNG(11)
	dir := t.TempDir()
	teacherPath := filepath.Join(dir, "teacher.ckpt")
	if err := vit.New(opts.TeacherCfg, rng.Split()).SaveFile(teacherPath); err != nil {
		t.Fatal(err)
	}
	studentPath := filepath.Join(dir, "student.ckpt")
	if err := vit.New(opts.StudentCfg, rng.Split()).SaveFile(studentPath); err != nil {
		t.Fatal(err)
	}

	p := New(opts)
	if err := p.LoadGeneralist(teacherPath); err != nil {
		t.Fatal(err)
	}
	if err := p.DefineTask("patrol", "watch the perimeter for vehicles and people"); err != nil {
		t.Fatal(err)
	}
	if err := p.LoadStudent("patrol", studentPath); err != nil {
		t.Fatal(err)
	}

	cfg := serve.DefaultConfig()
	cfg.Workers = 2
	cfg.MaxBatch = 8
	cfg.RetryBudget = 2
	cfg.Watchdog = 0
	// Lane breakers off: this test isolates the panic-evict -> demote ->
	// rollback path; an open breaker would correctly shed requests with 503s,
	// which is exactly the failure mode the rollback exists to avoid.
	cfg.BreakerThreshold = 0
	// Every client sends the same frame, and a poisoned version panics only
	// in a batch of two or more: the result cache and coalescing would
	// collapse the load into single executions that never panic.
	cfg.CacheBytes = 0
	cfg.Coalesce = false
	srv, err := serve.New(p.ServeBackend(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	img := tensor.New(3, opts.TeacherCfg.ImageSize, opts.TeacherCfg.ImageSize)
	const clients = 8
	var served, failed atomic.Uint64
	var firstErr atomic.Value
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := srv.Detect(context.Background(), serve.Request{Task: "patrol", Image: img}); err != nil {
					failed.Add(1)
					firstErr.CompareAndSwap(nil, err)
				} else {
					served.Add(1)
				}
			}
		}()
	}

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (served=%d failed=%d)", what, served.Load(), failed.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}

	const cycles = 6
	var poisonIDs []string
	for i := 0; i < cycles; i++ {
		if i%2 == 0 {
			if err := p.LoadStudent("patrol", studentPath); err != nil {
				t.Fatal(err)
			}
		} else {
			id, err := p.Registry().Publish(poisonStudent())
			if err != nil {
				t.Fatal(err)
			}
			poisonIDs = append(poisonIDs, id.String())
			want := uint64(len(poisonIDs))
			waitFor("bad version demotion", func() bool { return p.RegistryStats().Demotions >= want })
			if snap := p.Registry().Snapshot(); !snap.Quarantined(id.String()) {
				t.Fatalf("poisoned version %s not quarantined after demotion", id)
			}
		}
		// Let traffic flow on whatever is now active before the next swap.
		base := served.Load()
		waitFor("post-swap traffic", func() bool { return served.Load() >= base+50 })
	}
	close(stop)
	wg.Wait()

	if n := failed.Load(); n != 0 {
		t.Fatalf("%d requests failed during hot swaps (first: %v)", n, firstErr.Load())
	}
	stats := p.RegistryStats()
	if want := uint64(len(poisonIDs)); stats.Rollbacks < want || stats.Demotions < want {
		t.Errorf("registry stats = %+v, want >= %d rollbacks and demotions", stats, want)
	}

	snap := srv.Snapshot()
	if snap.Failed != 0 {
		t.Errorf("serve snapshot reports %d failed requests", snap.Failed)
	}
	if snap.Registry == nil || snap.Registry.Rollbacks != stats.Rollbacks {
		t.Errorf("registry stats not surfaced in /metricsz snapshot: %+v", snap.Registry)
	}
	perModel := map[string]serve.ModelStats{}
	for _, ms := range snap.PerModel {
		perModel[ms.Model] = ms
	}
	for _, id := range poisonIDs {
		if perModel[id].Panics == 0 {
			t.Errorf("poisoned version %s shows no panics in per-version metrics: %+v", id, perModel[id])
		}
	}
	active, ok := p.Registry().Snapshot().Active("patrol-student")
	if !ok {
		t.Fatal("no active patrol-student after the swap cycles")
	}
	if got := perModel[active.ID.String()]; got.Completed == 0 {
		t.Errorf("active version %s completed nothing: %+v", active.ID, got)
	}
}
