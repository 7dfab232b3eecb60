package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"itask/internal/tensor"
)

// poisonBackend panics on images whose first pixel carries the poison
// marker, executes everything else, and counts executions. It models a
// value-dependent kernel bug, like the chaos injector but local to this
// package.
type poisonBackend struct {
	mu    sync.Mutex
	execs int
}

const poisonPixel = 666

func (b *poisonBackend) Route(string) (string, error) { return "m@v1#aa", nil }
func (b *poisonBackend) RouteEpoch() uint64           { return 1 }

func (b *poisonBackend) DetectBatch(variant, task string, imgs []*tensor.Tensor) ([]any, string, error) {
	b.mu.Lock()
	b.execs++
	b.mu.Unlock()
	out := make([]any, len(imgs))
	for i, img := range imgs {
		if img.Data[0] == poisonPixel {
			panic("poison pixel")
		}
		out[i] = i
	}
	return out, variant, nil
}

func (b *poisonBackend) executions() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.execs
}

// A request whose content was quarantined as poison is refused from the
// negative cache with ErrQuarantined — no queue, no kernel, no re-panic —
// until the negative TTL lapses, after which it re-executes (and is
// re-quarantined).
func TestNegativeCacheBlocksPoisonReexecution(t *testing.T) {
	b := &poisonBackend{}
	cfg := DefaultConfig()
	cfg.NegativeTTL = 200 * time.Millisecond
	cfg.BreakerThreshold = 0 // isolate the negative-cache behaviour
	s := newTestServer(t, b, cfg)

	poison := testImage()
	poison.Data[0] = poisonPixel

	_, err := s.Detect(context.Background(), Request{Task: "patrol", Image: poison})
	if !errors.Is(err, ErrBackendPanic) {
		t.Fatalf("first poison request: err = %v, want ErrBackendPanic", err)
	}
	execsAfterFirst := b.executions()

	for i := 0; i < 5; i++ {
		_, err = s.Detect(context.Background(), Request{Task: "patrol", Image: poison})
		if !errors.Is(err, ErrQuarantined) {
			t.Fatalf("repeat %d: err = %v, want ErrQuarantined", i, err)
		}
	}
	if got := b.executions(); got != execsAfterFirst {
		t.Fatalf("quarantined content re-executed: %d -> %d executions", execsAfterFirst, got)
	}
	snap := s.Snapshot()
	if snap.QuarantineBlocked != 5 {
		t.Fatalf("QuarantineBlocked = %d, want 5", snap.QuarantineBlocked)
	}

	// Healthy content is untouched by the negative entry.
	if _, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage()}); err != nil {
		t.Fatalf("healthy request failed alongside quarantine: %v", err)
	}

	// After the TTL the content gets another chance — and fails afresh on
	// the backend, proving it re-executed.
	time.Sleep(250 * time.Millisecond)
	_, err = s.Detect(context.Background(), Request{Task: "patrol", Image: poison})
	if !errors.Is(err, ErrBackendPanic) {
		t.Fatalf("post-TTL poison request: err = %v, want ErrBackendPanic (re-execution)", err)
	}
	if got := b.executions(); got <= execsAfterFirst {
		t.Fatal("post-TTL poison request did not reach the backend")
	}
}

// demoteBackend wraps versionedBackend with a VariantHealthSink that swaps
// routing to the fallback version, modeling the registry demote + rollback
// the pipeline backend performs.
type demoteBackend struct {
	*versionedBackend
	mu        sync.Mutex
	demotions []string
	restore   string
}

func (b *demoteBackend) VariantUnhealthy(variant, task, reason string) {
	b.mu.Lock()
	b.demotions = append(b.demotions, variant)
	b.mu.Unlock()
	b.swap(b.restore)
}

func (b *demoteBackend) demoted() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.demotions...)
}

// A demoted version's result-cache entries are swept immediately: after the
// health verdict fires, the cache holds nothing pinned to the demoted ID and
// its bytes are back in the budget, while the restored version's entries
// survive.
func TestArtifactSweepOnDemote(t *testing.T) {
	b := &demoteBackend{versionedBackend: newVersionedBackend("m@v2#bb"), restore: "m@v1#aa"}
	cfg := DefaultConfig()
	cfg.BreakerThreshold = 1
	cfg.BreakerBackoff = time.Hour // keep the lane open; we only need the verdict
	s := newTestServer(t, b, cfg)

	// Warm the cache with v2 results under distinct digests.
	imgs := make([]*tensor.Tensor, 6)
	for i := range imgs {
		imgs[i] = testImage()
		imgs[i].Data[0] = float32(i + 1)
		if _, err := s.Detect(context.Background(), Request{Task: "patrol", Image: imgs[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.cache.Stats().Entries; got != len(imgs) {
		t.Fatalf("warmup entries = %d, want %d", got, len(imgs))
	}

	// One failure trips the breaker (threshold 1) -> health verdict ->
	// demote + sweep.
	b.versionedBackend.mu.Lock()
	b.versionedBackend.failOnce = true
	b.versionedBackend.mu.Unlock()
	fresh := testImage()
	fresh.Data[0] = 99
	if _, err := s.Detect(context.Background(), Request{Task: "patrol", Image: fresh}); err == nil {
		t.Fatal("forced failure did not fail")
	}
	if d := b.demoted(); len(d) != 1 || d[0] != "m@v2#bb" {
		t.Fatalf("demotions = %v, want [m@v2#bb]", d)
	}
	st := s.cache.Stats()
	if st.Entries != 0 {
		t.Fatalf("entries pinned to demoted version survived: %d resident", st.Entries)
	}
	if st.Bytes != 0 {
		t.Fatalf("demoted version's bytes not reclaimed: %d", st.Bytes)
	}
	if snap := s.Snapshot(); snap.ArtifactSweeps != uint64(len(imgs)) {
		t.Fatalf("ArtifactSweeps = %d, want %d", snap.ArtifactSweeps, len(imgs))
	}

	// The restored version serves and refills the cache under its own ID.
	res, err := s.Detect(context.Background(), Request{Task: "patrol", Image: imgs[0]})
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "m@v1#aa" || res.Cached {
		t.Fatalf("post-demote result = {model %s cached %v}, want fresh m@v1#aa", res.Model, res.Cached)
	}
}
