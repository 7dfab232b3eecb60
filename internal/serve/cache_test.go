package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"itask/internal/rcache"
	"itask/internal/tensor"
)

// versionedBackend is a fake backend whose routing table carries versioned
// artifact IDs and a route epoch, like the pipeline backend: swap() changes
// the variant every task routes to and bumps the epoch, modeling a registry
// publish or rollback. DetectBatch executes on the pinned variant (returning
// it as the serving model unless serveAs overrides it), counts per-variant
// executions, and can fail or block on demand.
type versionedBackend struct {
	mu      sync.Mutex
	variant string
	execs   map[string]int
	// serveAs, when non-empty, is returned as the model instead of the
	// executed variant — simulating a mid-flight registry redirect.
	serveAs string
	// failOn makes executions on that variant return an error.
	failOn string
	// failOnce makes exactly the next execution fail.
	failOnce bool
	fallback string

	epoch uint64

	// enter/release gate executions: when enter is non-nil every DetectBatch
	// signals it and then blocks until release is closed.
	enter   chan struct{}
	release chan struct{}
}

func newVersionedBackend(variant string) *versionedBackend {
	return &versionedBackend{variant: variant, execs: map[string]int{}, epoch: 1}
}

func (b *versionedBackend) Route(string) (string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.variant, nil
}

func (b *versionedBackend) RouteEpoch() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.epoch
}

func (b *versionedBackend) RouteFallback(string) (string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fallback == "" {
		return "", errors.New("no fallback")
	}
	return b.fallback, nil
}

// swap models a publish or rollback: every route now resolves to variant
// and the epoch bump invalidates the server's memoized routes.
func (b *versionedBackend) swap(variant string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.variant = variant
	b.epoch++
}

func (b *versionedBackend) executions(variant string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.execs[variant]
}

func (b *versionedBackend) DetectBatch(variant, task string, imgs []*tensor.Tensor) ([]any, string, error) {
	b.mu.Lock()
	b.execs[variant]++
	enter, release := b.enter, b.release
	model := variant
	if b.serveAs != "" {
		model = b.serveAs
	}
	fail := b.failOn == variant || b.failOnce
	b.failOnce = false
	b.mu.Unlock()
	if enter != nil {
		enter <- struct{}{}
		<-release
	}
	if fail {
		return nil, "", errors.New("versioned: forced failure")
	}
	out := make([]any, len(imgs))
	for i := range imgs {
		out[i] = i
	}
	return out, model, nil
}

// A repeated identical request is served from the result cache: one backend
// execution, the second response flagged Cached with the same payload.
func TestCacheHitServesWithoutExecution(t *testing.T) {
	b := newVersionedBackend("m@v1#aa")
	s := newTestServer(t, b, DefaultConfig())
	img := testImage()

	first, err := s.Detect(context.Background(), Request{Task: "patrol", Image: img})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first request can't be a cache hit")
	}
	second, err := s.Detect(context.Background(), Request{Task: "patrol", Image: img})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("identical repeat not served from cache")
	}
	if second.Model != "m@v1#aa" || second.Payload.(int) != first.Payload.(int) {
		t.Fatalf("cached result differs: %+v vs %+v", second, first)
	}
	if n := b.executions("m@v1#aa"); n != 1 {
		t.Fatalf("backend executed %d times, want 1", n)
	}
	snap := s.Snapshot()
	if snap.ResultCacheHits != 1 || snap.ResultCacheMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", snap.ResultCacheHits, snap.ResultCacheMisses)
	}
	if snap.Accepted != 2 || snap.Completed != 2 {
		t.Fatalf("books: accepted=%d completed=%d, want 2/2", snap.Accepted, snap.Completed)
	}
	if snap.ResultCache == nil || snap.ResultCache.Entries != 1 {
		t.Fatalf("ResultCache stats not surfaced: %+v", snap.ResultCache)
	}
}

// Distinct tasks and distinct image content never share a cache entry.
func TestCacheKeySeparation(t *testing.T) {
	b := newVersionedBackend("m@v1#aa")
	s := newTestServer(t, b, DefaultConfig())
	img := testImage()
	other := testImage()
	other.Data[0] = 0.5

	for _, req := range []Request{
		{Task: "patrol", Image: img},
		{Task: "rescue", Image: img},
		{Task: "patrol", Image: other},
	} {
		res, err := s.Detect(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Fatalf("request %q unexpectedly hit the cache", req.Task)
		}
	}
	if n := b.executions("m@v1#aa"); n != 3 {
		t.Fatalf("backend executed %d times, want 3", n)
	}
}

// A publish (new routed version, epoch bump) makes the old version's cache
// entries unreachable: the key pins the full versioned artifact ID. A
// rollback to the old version re-serves its still-TTL-valid entries, and a
// rollback after the TTL re-executes instead of resurrecting stale results.
func TestCacheVersionInteraction(t *testing.T) {
	b := newVersionedBackend("m@v1#aa")
	cfg := DefaultConfig()
	cfg.CacheTTL = 80 * time.Millisecond
	s := newTestServer(t, b, cfg)
	img := testImage()
	detect := func() Result {
		t.Helper()
		res, err := s.Detect(context.Background(), Request{Task: "patrol", Image: img})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	detect() // warm v1's entry

	b.swap("m@v2#bb") // publish v2
	res := detect()
	if res.Cached || res.Model != "m@v2#bb" {
		t.Fatalf("post-publish request served %+v, want fresh v2 execution", res)
	}

	b.swap("m@v1#aa") // rollback within the TTL
	res = detect()
	if !res.Cached || res.Model != "m@v1#aa" {
		t.Fatalf("rollback within TTL served %+v, want v1 cache hit", res)
	}
	if n := b.executions("m@v1#aa"); n != 1 {
		t.Fatalf("v1 executed %d times, want 1", n)
	}

	b.swap("m@v2#bb")
	time.Sleep(120 * time.Millisecond) // let v1's entry expire
	b.swap("m@v1#aa")                  // rollback after the TTL
	res = detect()
	if res.Cached {
		t.Fatal("rollback after TTL served a stale cached result")
	}
	if n := b.executions("m@v1#aa"); n != 2 {
		t.Fatalf("v1 executed %d times after stale rollback, want 2", n)
	}
}

// A result served by a different model than the routed key — the fallback
// variant while a breaker is open, or a mid-flight registry redirect — is
// never cached under the task-specific key.
func TestDegradedResultNeverCached(t *testing.T) {
	b := newVersionedBackend("m@v1#aa")
	b.failOn = "m@v1#aa"
	b.fallback = "fb@v1#ff"
	cfg := DefaultConfig()
	cfg.BreakerThreshold = 1
	cfg.BreakerBackoff = time.Minute
	s := newTestServer(t, b, cfg)
	img := testImage()

	// Trip the v1 lane's breaker.
	if _, err := s.Detect(context.Background(), Request{Task: "patrol", Image: img}); err == nil {
		t.Fatal("poisoned lane succeeded")
	}
	for i := 0; i < 2; i++ {
		res, err := s.Detect(context.Background(), Request{Task: "patrol", Image: img})
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded == "" || res.Model != "fb@v1#ff" {
			t.Fatalf("expected fallback-served degraded result, got %+v", res)
		}
		if res.Cached {
			t.Fatal("degraded result served from cache")
		}
	}
	// Both degraded requests executed — nothing was cached under the
	// task-specific v1 key.
	if n := b.executions("fb@v1#ff"); n != 2 {
		t.Fatalf("fallback executed %d times, want 2 (no caching)", n)
	}
	if snap := s.Snapshot(); snap.ResultCacheHits != 0 {
		t.Fatalf("ResultCacheHits = %d, want 0", snap.ResultCacheHits)
	}
}

// A mid-flight redirect (executed model != routed key) must not fill the
// cache either, even when the result is not flagged degraded.
func TestRedirectedResultNeverCached(t *testing.T) {
	b := newVersionedBackend("m@v2#bb")
	b.serveAs = "m@v1#aa" // registry rolled back between route and execute
	s := newTestServer(t, b, DefaultConfig())
	img := testImage()

	for i := 0; i < 2; i++ {
		res, err := s.Detect(context.Background(), Request{Task: "patrol", Image: img})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Fatal("redirected result served from cache")
		}
	}
	if n := b.executions("m@v2#bb"); n != 2 {
		t.Fatalf("backend executed %d times, want 2", n)
	}
}

// Concurrent identical requests that miss the cache collapse into one
// execution: the leader runs, followers share its result flagged Coalesced.
func TestCoalesceSharesOneExecution(t *testing.T) {
	b := newVersionedBackend("m@v1#aa")
	b.enter = make(chan struct{}, 16)
	b.release = make(chan struct{})
	cfg := DefaultConfig()
	cfg.QueueCap = 64
	s := newTestServer(t, b, cfg)
	img := testImage()
	req := Request{Task: "patrol", Image: img}

	leader, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-b.enter // leader is executing; followers will join its flight

	const followers = 5
	var chans []<-chan Outcome
	for i := 0; i < followers; i++ {
		ch, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	close(b.release)

	if out := <-leader; out.Err != nil || out.Res.Coalesced {
		t.Fatalf("leader outcome %+v, want plain success", out)
	}
	for i, ch := range chans {
		out := <-ch
		if out.Err != nil {
			t.Fatalf("follower %d failed: %v", i, out.Err)
		}
		if !out.Res.Coalesced {
			t.Fatalf("follower %d not coalesced: %+v", i, out.Res)
		}
	}
	if n := b.executions("m@v1#aa"); n != 1 {
		t.Fatalf("backend executed %d times, want 1", n)
	}
	snap := s.Snapshot()
	if snap.Coalesced != followers {
		t.Fatalf("Coalesced = %d, want %d", snap.Coalesced, followers)
	}
	if snap.Accepted != followers+1 || snap.Completed != followers+1 {
		t.Fatalf("books: accepted=%d completed=%d, want %d", snap.Accepted, snap.Completed, followers+1)
	}
}

// A failed leader never fails its followers: each follower is re-admitted
// and re-executed individually, earning its own (successful) outcome.
func TestFailedLeaderFollowersReexecute(t *testing.T) {
	b := newVersionedBackend("m@v1#aa")
	b.enter = make(chan struct{}, 16)
	b.release = make(chan struct{})
	b.failOnce = true // exactly the leader's execution fails
	cfg := DefaultConfig()
	cfg.QueueCap = 64
	s := newTestServer(t, b, cfg)
	img := testImage()
	req := Request{Task: "patrol", Image: img}

	leader, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-b.enter

	const followers = 4
	var chans []<-chan Outcome
	for i := 0; i < followers; i++ {
		ch, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	go func() {
		// Re-executions re-enter the gate; drain their signals.
		for range b.enter {
		}
	}()
	close(b.release)

	if out := <-leader; out.Err == nil {
		t.Fatal("leader must fail: its execution failed")
	}
	for i, ch := range chans {
		out := <-ch
		if out.Err != nil {
			t.Fatalf("follower %d inherited the leader's failure: %v", i, out.Err)
		}
		if out.Res.Coalesced {
			t.Fatalf("follower %d flagged Coalesced after re-execution", i)
		}
	}
	if n := b.executions("m@v1#aa"); n < 2 {
		t.Fatalf("backend executed %d times, want >= 2 (leader + re-executions)", n)
	}
	snap := s.Snapshot()
	if snap.CoalescedRetried != followers {
		t.Fatalf("CoalescedRetried = %d, want %d", snap.CoalescedRetried, followers)
	}
	if snap.Failed != 1 {
		t.Fatalf("Failed = %d, want 1 (the leader alone)", snap.Failed)
	}
	if snap.Completed != followers {
		t.Fatalf("Completed = %d, want %d", snap.Completed, followers)
	}
}

// The cached hit path allocates nothing: admission, route memoization,
// cache probe, and metrics are all allocation-free.
func TestDetectCachedHitZeroAllocs(t *testing.T) {
	b := newVersionedBackend("m@v1#aa")
	cfg := DefaultConfig()
	cfg.HotThreshold = 0 // the sharded path; TestDetectReplicatedHitZeroAllocs has the hot tier's
	s := newTestServer(t, b, cfg)
	img := testImage()
	req := Request{Task: "patrol", Image: img}
	ctx := context.Background()

	if _, err := s.Detect(ctx, req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		res, err := s.Detect(ctx, req)
		if err != nil || !res.Cached {
			t.Fatalf("hit path broke: %v %+v", err, res)
		}
	})
	if allocs != 0 {
		t.Fatalf("cached Detect allocates %.1f/op, want 0", allocs)
	}

	// The same hit for a request keyed by its digest, never decoded.
	keyed := Request{Task: "patrol", Digest: rcache.DigestImage(img), Decode: func() (*tensor.Tensor, error) {
		t.Error("a cache hit decoded its pixels")
		return img, nil
	}}
	allocs = testing.AllocsPerRun(1000, func() {
		res, err := s.Detect(ctx, keyed)
		if err != nil || !res.Cached {
			t.Fatalf("keyed hit path broke: %v %+v", err, res)
		}
	})
	if allocs != 0 {
		t.Fatalf("cached keyed Detect allocates %.1f/op, want 0", allocs)
	}
}
