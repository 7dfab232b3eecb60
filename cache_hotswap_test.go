package itask

import (
	"context"
	"path/filepath"
	"testing"

	"itask/internal/serve"
	"itask/internal/tensor"
	"itask/internal/vit"
)

// End-to-end proof that the serving layer's result cache keys pin full
// versioned artifact IDs through the real registry: publishing a new student
// version makes the old version's cached entries unreachable (the route
// epoch — the registry snapshot sequence — invalidates the memoized route,
// and the new versioned ID misses), and rolling back re-serves the restored
// version's still-valid entries without executing a kernel.
func TestResultCacheAcrossPublishRollback(t *testing.T) {
	opts := DefaultOptions()
	rng := tensor.NewRNG(5)
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

	srv, err := serve.New(p.ServeBackend(), serve.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	img := tensor.New(3, opts.TeacherCfg.ImageSize, opts.TeacherCfg.ImageSize)
	detect := func() serve.Result {
		t.Helper()
		res, err := srv.Detect(context.Background(), serve.Request{Task: "patrol", Image: img})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	first := detect()
	if first.Cached {
		t.Fatal("first request cannot be a cache hit")
	}
	if res := detect(); !res.Cached || res.Model != first.Model {
		t.Fatalf("repeat = %+v, want cache hit on %s", res, first.Model)
	}

	// Publish v2 of the student: same weights, new version — the cache must
	// not serve v1's entry for a request routed to v2.
	if err := p.LoadStudent("patrol", studentPath); err != nil {
		t.Fatal(err)
	}
	afterPublish := detect()
	if afterPublish.Cached {
		t.Fatal("request routed to the new version hit the old version's cache entry")
	}
	if afterPublish.Model == first.Model {
		t.Fatalf("post-publish request served by %s, want a new version", afterPublish.Model)
	}

	// Roll back: v1 is active again and its entry is still TTL-valid.
	if _, err := p.RollbackModel("patrol-student"); err != nil {
		t.Fatal(err)
	}
	afterRollback := detect()
	if !afterRollback.Cached || afterRollback.Model != first.Model {
		t.Fatalf("post-rollback = %+v, want %s served from cache", afterRollback, first.Model)
	}

	snap := srv.Snapshot()
	if snap.ResultCacheHits != 2 {
		t.Fatalf("ResultCacheHits = %d, want 2", snap.ResultCacheHits)
	}
}
