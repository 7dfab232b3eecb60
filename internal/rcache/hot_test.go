package rcache

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// hotConfig is a tier-enabled cache sized so promotion trips fast: threshold
// 4 arrivals within a decay window of 64.
func hotConfig() Config {
	return Config{MaxBytes: 1 << 20, Shards: 4, HotThreshold: 4, HotDecay: 64, HotMaxBytes: 1 << 16}
}

func hotStats(c *Cache) Stats { return c.Stats() }

func TestHotPromotionOnRepeatedGets(t *testing.T) {
	c := New(hotConfig())
	now := time.Now()
	k := key("m@v1#ab", "patrol", 42)
	c.Put(k, "viral", now)
	for i := 0; i < 4; i++ {
		if _, _, ok := c.Get(k, now); !ok {
			t.Fatalf("miss on arrival %d", i)
		}
	}
	st := hotStats(c)
	if st.HotPromotions != 1 || st.HotEntries != 1 {
		t.Fatalf("after threshold gets: promotions=%d entries=%d, want 1/1", st.HotPromotions, st.HotEntries)
	}
	if st.HotBytes <= 0 || st.HotBytes > st.HotMaxBytes {
		t.Fatalf("replica bytes %d out of (0, %d]", st.HotBytes, st.HotMaxBytes)
	}
	// Subsequent gets are replicated hits.
	before := hotStats(c).HotHits
	got, model, ok := c.Get(k, now)
	if !ok || got != "viral" || model != "m@v1#ab" {
		t.Fatalf("replicated Get = (%v, %q, %v)", got, model, ok)
	}
	if after := hotStats(c).HotHits; after != before+1 {
		t.Fatalf("HotHits %d -> %d, want +1", before, after)
	}
	// Replicated probes the replica table only.
	if _, _, ok := c.Replicated(k, now); !ok {
		t.Fatal("Replicated missed a promoted key")
	}
	if _, _, ok := c.Replicated(key("m@v1#ab", "patrol", 43), now); ok {
		t.Fatal("Replicated hit an unpromoted key")
	}
}

func TestHotFillPromotion(t *testing.T) {
	// Misses count arrivals too: a digest that goes hot while its result is
	// in flight is promoted by the eventual Put.
	c := New(hotConfig())
	now := time.Now()
	k := key("m@v1#ab", "patrol", 77)
	for i := 0; i < 5; i++ {
		c.Get(k, now)
	}
	c.Put(k, "filled", now)
	if st := hotStats(c); st.HotPromotions != 1 {
		t.Fatalf("fill after hot misses did not promote: promotions=%d", st.HotPromotions)
	}
	if _, _, ok := c.Replicated(k, now); !ok {
		t.Fatal("filled entry not in replica table")
	}
}

func TestHotReplicatedGetZeroAlloc(t *testing.T) {
	c := New(hotConfig())
	now := time.Now()
	k := key("m@v1#ab", "patrol", 99)
	c.Put(k, "p", now)
	for i := 0; i < 4; i++ {
		c.Get(k, now)
	}
	if _, _, ok := c.Replicated(k, now); !ok {
		t.Fatal("not promoted")
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, ok := c.Get(k, now); !ok {
			t.Fatal("replicated miss")
		}
	}); n != 0 {
		t.Fatalf("replicated Get allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, ok := c.Replicated(k, now); !ok {
			t.Fatal("replicated miss")
		}
	}); n != 0 {
		t.Fatalf("Replicated allocates %v/op, want 0", n)
	}
}

func TestHotMarkHotPrePromotes(t *testing.T) {
	c := New(hotConfig())
	now := time.Now()
	k := key("m@v1#ab", "patrol", 7)
	c.Put(k, "p", now)
	// One upstream hint replaces threshold-many local arrivals.
	c.MarkHot(k, now)
	if st := hotStats(c); st.HotPromotions != 1 {
		t.Fatalf("MarkHot on a cached key did not promote: promotions=%d", st.HotPromotions)
	}
	// A hint for an uncached key just heats the detector; the fill promotes.
	k2 := key("m@v1#ab", "patrol", 8)
	c.MarkHot(k2, now)
	if st := hotStats(c); st.HotPromotions != 1 {
		t.Fatalf("MarkHot on an uncached key promoted: promotions=%d", st.HotPromotions)
	}
	c.Put(k2, "p2", now)
	if _, _, ok := c.Replicated(k2, now); !ok {
		t.Fatal("fill after MarkHot not promoted")
	}
}

// The real payload is a slice ([]itask.Detection), which Go cannot compare:
// promoting an already-promoted key must not look at the payload. Every
// route into promote is driven twice on a live replica — the MarkHot hint,
// a refreshing Put, and Gets racing each other across the promotion.
func TestHotRepromoteSlicePayload(t *testing.T) {
	cfg := hotConfig()
	cfg.TTL = time.Minute
	c := New(cfg)
	now := time.Now()
	payload := []int{1, 2, 3}

	// MarkHot: every X-Itask-Hot request for a viral frame takes this path.
	k := key("m@v1#ab", "patrol", 7)
	c.Put(k, payload, now)
	c.MarkHot(k, now)
	c.MarkHot(k, now)
	// A Put refreshing a promoted key (its TTL restarts) republishes it.
	c.Put(k, []int{4, 5, 6, 7}, now.Add(time.Second))
	got, _, ok := c.Replicated(k, now)
	if !ok || len(got.([]int)) != 4 {
		t.Fatalf("replica after a refreshing Put = (%v, %v), want the 4-element fill", got, ok)
	}
	if st := hotStats(c); st.HotPromotions != 1 {
		t.Fatalf("re-promotions of a live replica counted as new: promotions=%d, want 1", st.HotPromotions)
	}

	// Get: readers that all missed the replica table just before the
	// promotion landed each promote the entry they read from the shard.
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	for round := 0; round < 200; round++ {
		c := New(hotConfig())
		k := key("m@v1#ab", "patrol", uint64(round))
		c.Put(k, payload, now)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 4; i++ {
					if _, _, ok := c.Get(k, now); !ok {
						t.Error("miss on a cached key")
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		if _, _, ok := c.Replicated(k, now); !ok {
			t.Fatalf("round %d: 32 reads past a threshold of 4 left the key unpromoted", round)
		}
	}
}

func TestHotDecayDemotion(t *testing.T) {
	// A promoted entry whose replicated traffic dries up is demoted at a
	// decay-sweep boundary; one that keeps earning threshold hits survives.
	cfg := hotConfig()
	cfg.HotDecay = 16
	c := New(cfg)
	now := time.Now()
	kHot := key("m@v1#ab", "patrol", 1)
	kDry := key("m@v1#ab", "patrol", 2)
	c.Put(kHot, "stays", now)
	c.Put(kDry, "dries", now)
	for i := 0; i < 4; i++ {
		c.Get(kHot, now)
		c.Get(kDry, now)
	}
	if st := hotStats(c); st.HotEntries != 2 {
		t.Fatalf("both keys should be promoted: entries=%d", st.HotEntries)
	}
	// Run whole decay windows of traffic: kHot keeps taking replicated hits,
	// kDry takes none, and cold slow-path keys advance the sweep clock.
	cold := uint64(0x1000)
	for w := 0; w < 3; w++ {
		for i := 0; i < 8; i++ {
			c.Get(kHot, now)
		}
		for i := 0; i < 16; i++ {
			cold++
			c.Get(key("m@v1#ab", "patrol", cold), now)
		}
	}
	st := hotStats(c)
	if st.HotEntries != 1 {
		t.Fatalf("after dry windows: entries=%d, want 1 (dry key demoted)", st.HotEntries)
	}
	if _, _, ok := c.Replicated(kHot, now); !ok {
		t.Fatal("earning key was demoted")
	}
	if _, _, ok := c.Replicated(kDry, now); ok {
		t.Fatal("dry key survived the sweep")
	}
	if st.HotDemotions == 0 {
		t.Fatal("demotion not counted")
	}
	// Demoted key still serves from the sharded tier.
	if _, _, ok := c.Get(kDry, now); !ok {
		t.Fatal("demoted key lost its shard entry")
	}
}

func TestHotBytePressure(t *testing.T) {
	// The tier refuses entries over budget and never displaces an incumbent
	// still earning threshold traffic with a colder newcomer.
	cfg := hotConfig()
	cfg.HotMaxBytes = 600
	cfg.SizeOf = func(any) int64 { return 512 }
	c := New(cfg)
	now := time.Now()
	k1 := key("m@v1#ab", "patrol", 1)
	k2 := key("m@v1#ab", "patrol", 2)
	c.Put(k1, "first", now)
	c.Put(k2, "second", now)
	for i := 0; i < 4; i++ {
		c.Get(k1, now)
	}
	if st := hotStats(c); st.HotEntries != 1 || st.HotBytes != 512 {
		t.Fatalf("entries=%d bytes=%d, want 1/512", st.HotEntries, st.HotBytes)
	}
	// k2 goes hot but there is no room and k1 is fresh (protected this
	// window): k2 stays sharded.
	for i := 0; i < 4; i++ {
		c.Get(k2, now)
	}
	st := hotStats(c)
	if st.HotEntries != 1 {
		t.Fatalf("byte pressure ignored: entries=%d bytes=%d", st.HotEntries, st.HotBytes)
	}
	if _, _, ok := c.Replicated(k1, now); !ok {
		t.Fatal("incumbent displaced under pressure")
	}
	if st.HotBytes > st.HotMaxBytes {
		t.Fatalf("tier over budget: %d > %d", st.HotBytes, st.HotMaxBytes)
	}
}

func TestHotArtifactRetirement(t *testing.T) {
	c := New(hotConfig())
	now := time.Now()
	kOld := key("m@v1#ab", "patrol", 5)
	kOther := key("n@v1#cd", "patrol", 6)
	c.Put(kOld, "old", now)
	c.Put(kOther, "other", now)
	for i := 0; i < 4; i++ {
		c.Get(kOld, now)
		c.Get(kOther, now)
	}
	if st := hotStats(c); st.HotEntries != 2 {
		t.Fatalf("setup: entries=%d, want 2", st.HotEntries)
	}
	removed := c.InvalidateArtifact("m@v1#ab")
	if removed != 2 { // one replica + one shard entry
		t.Fatalf("InvalidateArtifact removed %d, want 2", removed)
	}
	if _, _, ok := c.Replicated(kOld, now); ok {
		t.Fatal("retired artifact's replica still served")
	}
	if _, _, ok := c.Get(kOld, now); ok {
		t.Fatal("retired artifact's shard entry still served")
	}
	if _, _, ok := c.Replicated(kOther, now); !ok {
		t.Fatal("unrelated artifact's replica was retired")
	}
}

func TestHotTTLExpiryDemotes(t *testing.T) {
	cfg := hotConfig()
	cfg.TTL = time.Second
	c := New(cfg)
	now := time.Now()
	k := key("m@v1#ab", "patrol", 11)
	c.Put(k, "p", now)
	for i := 0; i < 4; i++ {
		c.Get(k, now)
	}
	if _, _, ok := c.Replicated(k, now); !ok {
		t.Fatal("not promoted")
	}
	late := now.Add(2 * time.Second)
	if _, _, ok := c.Replicated(k, late); ok {
		t.Fatal("replica served past TTL")
	}
	if _, _, ok := c.Get(k, late); ok {
		t.Fatal("shard entry served past TTL")
	}
	st := hotStats(c)
	if st.HotEntries != 0 || st.HotBytes != 0 {
		t.Fatalf("expired replica leaked: entries=%d bytes=%d", st.HotEntries, st.HotBytes)
	}
}

// TestHotBooksBalance churns promotion/demotion/retirement concurrently with
// replicated readers and checks the accounting invariants: replica bytes
// return to zero when everything is retired, demotions never exceed
// promotions, and HotHits is monotonic (run with -race).
func TestHotBooksBalance(t *testing.T) {
	cfg := hotConfig()
	cfg.HotDecay = 32
	c := New(cfg)
	now := time.Now()
	const artifacts = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				art := fmt.Sprintf("m@v%d#x", i%artifacts)
				k := key(art, "patrol", uint64(g*8+i%4))
				c.Put(k, "p", now)
				c.Get(k, now)
				c.Get(k, now)
				c.Replicated(k, now)
				if i%50 == 0 {
					c.InvalidateArtifact(art)
				}
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	for i := 0; i < artifacts; i++ {
		c.InvalidateArtifact(fmt.Sprintf("m@v%d#x", i))
	}
	st := hotStats(c)
	if st.HotEntries != 0 || st.HotBytes != 0 {
		t.Fatalf("books don't balance after retiring everything: entries=%d bytes=%d", st.HotEntries, st.HotBytes)
	}
	if st.HotDemotions > st.HotPromotions {
		t.Fatalf("demotions %d > promotions %d", st.HotDemotions, st.HotPromotions)
	}
	if st.Hits < st.HotHits {
		t.Fatalf("Hits %d excludes HotHits %d", st.Hits, st.HotHits)
	}
}

func TestHotDisabledByDefault(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	now := time.Now()
	k := key("m@v1#ab", "patrol", 1)
	c.Put(k, "p", now)
	for i := 0; i < 100; i++ {
		c.Get(k, now)
	}
	c.MarkHot(k, now) // no-op, must not panic
	if _, _, ok := c.Replicated(k, now); ok {
		t.Fatal("disabled tier replicated an entry")
	}
	st := hotStats(c)
	if st.HotEntries != 0 || st.HotPromotions != 0 || st.HotMaxBytes != 0 {
		t.Fatalf("disabled tier reported stats: %+v", st)
	}
}
