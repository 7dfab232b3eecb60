package itask

import (
	"context"
	"errors"
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

// poisonStudent is a bad new "patrol-student" version: it panics on every
// execution.
func poisonStudent() registry.Artifact {
	return registry.Artifact{
		Name: "patrol-student", Kind: registry.TaskSpecific, Task: "patrol",
		Bytes: 1 << 16, LatencyUS: 50,
		Detect: func(imgs []*tensor.Tensor) [][]geom.Scored {
			panic("poisoned weights")
		},
	}
}

// The headline hot-swap proof: sustained concurrent traffic on the served
// configuration (serve.DefaultConfig, result cache and coalescing on) across
// repeated publish/rollback cycles — healthy student republishes alternating
// with poisoned versions that panic on every execution. The first panic on a
// bad version demotes it, and the registry rolls the name back to the
// last-known-good version before the failed request's coalesced followers
// re-execute, so a bad version fails at most the requests already executing
// on it — at most one per worker — each with ErrBackendPanic, and everything
// after it is served by the restored version. Run under -race to also prove
// the snapshot swaps never tear.
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
	srv, err := serve.New(p.ServeBackend(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	img := tensor.New(3, opts.TeacherCfg.ImageSize, opts.TeacherCfg.ImageSize)
	const clients = 8
	var served, failed atomic.Uint64
	var otherErr atomic.Value
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
				_, err := srv.Detect(context.Background(), serve.Request{Task: "patrol", Image: img})
				switch {
				case err == nil:
					served.Add(1)
				case errors.Is(err, serve.ErrBackendPanic):
					failed.Add(1)
				default:
					failed.Add(1)
					otherErr.CompareAndSwap(nil, err)
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
	active := func() string {
		t.Helper()
		a, ok := p.Registry().Snapshot().Active("patrol-student")
		if !ok {
			t.Fatal("no active patrol-student")
		}
		return a.ID.String()
	}

	const cycles = 6
	var poisonIDs []string
	for i := 0; i < cycles; i++ {
		if i%2 == 0 {
			if err := p.LoadStudent("patrol", studentPath); err != nil {
				t.Fatal(err)
			}
		} else {
			good := active()
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
			if now := active(); now != good {
				t.Fatalf("after demoting %s the active version is %s, want the restored %s", id, now, good)
			}
		}
		// Let traffic flow on whatever is now active before the next swap.
		base := served.Load()
		waitFor("post-swap traffic", func() bool { return served.Load() >= base+50 })
	}
	close(stop)
	wg.Wait()

	if err := otherErr.Load(); err != nil {
		t.Fatalf("a request failed with something other than its own backend panic: %v", err)
	}
	stats := p.RegistryStats()
	if want := uint64(len(poisonIDs)); stats.Rollbacks < want || stats.Demotions < want {
		t.Errorf("registry stats = %+v, want >= %d rollbacks and demotions", stats, want)
	}

	snap := srv.Snapshot()
	if snap.Failed != failed.Load() {
		t.Errorf("serve snapshot reports %d failed requests, the clients saw %d", snap.Failed, failed.Load())
	}
	if snap.Registry == nil || snap.Registry.Rollbacks != stats.Rollbacks {
		t.Errorf("registry stats not surfaced in /metricsz snapshot: %+v", snap.Registry)
	}
	perModel := map[string]serve.ModelStats{}
	for _, ms := range snap.PerModel {
		perModel[ms.Model] = ms
	}
	var onPoison uint64
	for _, id := range poisonIDs {
		ms := perModel[id]
		if ms.Panics == 0 {
			t.Errorf("poisoned version %s shows no panics in per-version metrics: %+v", id, ms)
		}
		if ms.Failed > uint64(cfg.Workers) {
			t.Errorf("poisoned version %s failed %d requests, want at most one per worker (%d)", id, ms.Failed, cfg.Workers)
		}
		onPoison += ms.Failed
	}
	if snap.Failed != onPoison {
		t.Errorf("%d requests failed, %d of them on poisoned versions: a healthy version failed requests", snap.Failed, onPoison)
	}
	if got := perModel[active()]; got.Completed == 0 {
		t.Errorf("active version %s completed nothing: %+v", active(), got)
	}
}
