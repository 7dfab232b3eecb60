package serve

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// hotConfig enables the result cache's hot replica tier with a promotion
// threshold low enough for tests to trip quickly.
func hotServeConfig() Config {
	cfg := DefaultConfig()
	cfg.HotThreshold = 2
	cfg.HotBytes = 1 << 16
	return cfg
}

// retireBackend is a versionedBackend that also implements
// RetirementNotifier with the registry's ordering contract: on a swap, the
// hooks fire with the outgoing version's ID before the new variant/epoch
// become observable.
type retireBackend struct {
	versionedBackend
	hooks []func(string)
}

func newRetireBackend(variant string) *retireBackend {
	b := &retireBackend{}
	b.variant = variant
	b.execs = map[string]int{}
	b.epoch = 1
	return b
}

func (b *retireBackend) OnRetire(fn func(artifact string)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.hooks = append(b.hooks, fn)
}

// swapRetire publishes a new version: the old one is retired (hooks run)
// before any Route or RouteEpoch can observe the new state.
func (b *retireBackend) swapRetire(variant string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, fn := range b.hooks {
		fn(b.variant)
	}
	b.variant = variant
	b.epoch++
}

func (b *retireBackend) current() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.variant
}

// versionOf extracts N from "m@vN#aa".
func versionOf(t *testing.T, model string) int {
	t.Helper()
	rest, ok := strings.CutPrefix(model, "m@v")
	if !ok {
		t.Fatalf("unexpected model %q", model)
	}
	num, _, _ := strings.Cut(rest, "#")
	v, err := strconv.Atoi(num)
	if err != nil {
		t.Fatalf("unexpected model %q", model)
	}
	return v
}

// TestHotReplicaNeverServesRetiredVersion hammers one viral digest with
// concurrent readers while a churner publishes new versions, each publish
// retiring the previous version's hot replicas before the new routing view
// serves (the registry swap contract). Every response must come from a
// version at least as new as the one active when the request started — a
// promoted replica must never serve a retired version — and after the churn
// the replica books must balance: no leaked replica entries or bytes. Run
// with -race.
func TestHotReplicaNeverServesRetiredVersion(t *testing.T) {
	b := newRetireBackend("m@v1#aa")
	s := newTestServer(t, b, hotServeConfig())
	img := testImage()
	ctx := context.Background()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				floor := versionOf(t, b.current())
				res, err := s.Detect(ctx, Request{Task: "patrol", Image: img})
				if err != nil {
					t.Errorf("detect: %v", err)
					return
				}
				if got := versionOf(t, res.Model); got < floor {
					t.Errorf("served retired version v%d (v%d was already active)", got, floor)
					return
				}
			}
		}()
	}
	for v := 2; v <= 30; v++ {
		time.Sleep(2 * time.Millisecond)
		b.swapRetire(fmt.Sprintf("m@v%d#aa", v))
	}
	close(stop)
	wg.Wait()

	// Only the final version may still hold replicas; one more publish
	// retires it and the books must read empty — promotion/demotion churn
	// must not leak replica entries or bytes.
	st := s.Snapshot().ResultCache
	if st.HotEntries > 1 {
		t.Fatalf("retired versions leaked replicas: %d entries, %d bytes", st.HotEntries, st.HotBytes)
	}
	b.swapRetire("m@v31#aa")
	st = s.Snapshot().ResultCache
	if st.HotEntries != 0 || st.HotBytes != 0 {
		t.Fatalf("replica books don't balance: %d entries, %d bytes", st.HotEntries, st.HotBytes)
	}
	if st.HotDemotions > st.HotPromotions {
		t.Fatalf("demotions %d > promotions %d", st.HotDemotions, st.HotPromotions)
	}
	if st.Hits < st.HotHits {
		t.Fatalf("Hits %d excludes HotHits %d", st.Hits, st.HotHits)
	}
}

// An upstream hot hint (Request.Hot, the gateway's X-Itask-Hot) pre-promotes
// the digest: the fill after the first request lands straight in the replica
// table, without threshold-many local arrivals.
func TestHotRequestHintPrePromotes(t *testing.T) {
	b := newRetireBackend("m@v1#aa")
	cfg := hotServeConfig()
	cfg.HotThreshold = 1 << 20 // the local detector alone would never trip
	s := newTestServer(t, b, cfg)
	img := testImage()
	ctx := context.Background()

	if _, err := s.Detect(ctx, Request{Task: "patrol", Image: img, Hot: true}); err != nil {
		t.Fatal(err)
	}
	st := s.Snapshot().ResultCache
	if st.HotPromotions != 1 || st.HotEntries != 1 {
		t.Fatalf("hinted fill not promoted: promotions=%d entries=%d", st.HotPromotions, st.HotEntries)
	}
	res, err := s.Detect(ctx, Request{Task: "patrol", Image: img})
	if err != nil || !res.Cached {
		t.Fatalf("repeat = (%+v, %v), want replicated cache hit", res, err)
	}
	snap := s.Snapshot()
	if snap.ResultCache.HotHits == 0 || snap.ReplicatedHitRate <= 0 {
		t.Fatalf("replicated hit not accounted: hot_hits=%d rate=%g",
			snap.ResultCache.HotHits, snap.ReplicatedHitRate)
	}
}

// The replicated hit path — the lock-free table probe inside Detect — stays
// allocation-free, like the sharded cached path it bypasses.
func TestDetectReplicatedHitZeroAllocs(t *testing.T) {
	b := newRetireBackend("m@v1#aa")
	s := newTestServer(t, b, hotServeConfig())
	img := testImage()
	req := Request{Task: "patrol", Image: img}
	ctx := context.Background()

	// Prime: execute once, then trip the threshold (2 reads) to promote.
	for i := 0; i < 3; i++ {
		if _, err := s.Detect(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Snapshot().ResultCache; st.HotEntries != 1 {
		t.Fatalf("digest not promoted before alloc run: %+v", st)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		res, err := s.Detect(ctx, req)
		if err != nil || !res.Cached {
			t.Fatalf("replicated path broke: %v %+v", err, res)
		}
	})
	if allocs != 0 {
		t.Fatalf("replicated Detect allocates %.1f/op, want 0", allocs)
	}
	if st := s.Snapshot().ResultCache; st.HotHits == 0 {
		t.Fatal("alloc run never touched the replica table")
	}
}

// The hot tier is part of the result cache: turning the cache off
// (itask-serve -cache-bytes 0) under the default hot threshold serves with
// neither. Negative hot knobs are refused.
func TestHotConfigValidation(t *testing.T) {
	noCache := DefaultConfig()
	noCache.CacheBytes = 0
	s := newTestServer(t, newFakeBackend(), noCache)
	if _, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage()}); err != nil {
		t.Fatal(err)
	}
	if st := s.Snapshot().ResultCache; st != nil {
		t.Fatalf("CacheBytes 0 built a result cache: %+v", st)
	}
	for _, mut := range []func(*Config){
		func(c *Config) { c.HotThreshold = -1 },
		func(c *Config) { c.HotBytes = -1 },
	} {
		bad := DefaultConfig()
		mut(&bad)
		if err := bad.Validate(); err == nil {
			t.Fatalf("negative hot knob validated: %+v", bad)
		}
	}
}
