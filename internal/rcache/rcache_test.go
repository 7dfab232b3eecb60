package rcache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"itask/internal/tensor"
)

func key(artifact, task string, digest uint64) Key {
	return Key{Artifact: artifact, Task: task, Digest: digest}
}

func TestGetPutBasic(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, Shards: 4})
	now := time.Now()
	k := key("m@v1#ab", "patrol", 42)

	if _, _, ok := c.Get(k, now); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, "payload-1", now)
	got, model, ok := c.Get(k, now)
	if !ok || got != "payload-1" || model != "m@v1#ab" {
		t.Fatalf("Get = (%v, %q, %v), want (payload-1, m@v1#ab, true)", got, model, ok)
	}

	// Same digest, different artifact or task: distinct entries.
	if _, _, ok := c.Get(key("m@v2#cd", "patrol", 42), now); ok {
		t.Fatal("hit across artifact versions")
	}
	if _, _, ok := c.Get(key("m@v1#ab", "rescue", 42), now); ok {
		t.Fatal("hit across tasks")
	}

	// Replacement refreshes the payload.
	c.Put(k, "payload-2", now)
	if got, _, _ := c.Get(k, now); got != "payload-2" {
		t.Fatalf("after replace Get = %v, want payload-2", got)
	}
	st := c.Stats()
	if st.Inserts != 1 {
		t.Fatalf("replace must not count as insert: inserts = %d", st.Inserts)
	}
}

func TestTTLExpiry(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, TTL: time.Second, Shards: 1})
	now := time.Now()
	k := key("m@v1#ab", "patrol", 7)
	c.Put(k, "p", now)

	if _, _, ok := c.Get(k, now.Add(999*time.Millisecond)); !ok {
		t.Fatal("entry expired before TTL")
	}
	if _, _, ok := c.Get(k, now.Add(1001*time.Millisecond)); ok {
		t.Fatal("entry served after TTL")
	}
	st := c.Stats()
	if st.Stale != 1 {
		t.Fatalf("stale = %d, want 1", st.Stale)
	}
	if st.Entries != 0 {
		t.Fatalf("expired entry still resident: entries = %d", st.Entries)
	}
	// A fresh Put after expiry re-inserts with a new TTL.
	later := now.Add(2 * time.Second)
	c.Put(k, "p2", later)
	if _, _, ok := c.Get(k, later.Add(500*time.Millisecond)); !ok {
		t.Fatal("re-inserted entry not served")
	}
}

func TestLRUEvictionUnderByteBudget(t *testing.T) {
	// One shard, budget for exactly 4 default-sized entries.
	c := New(Config{MaxBytes: 4 * defaultEntrySize, Shards: 1})
	now := time.Now()
	for i := 0; i < 4; i++ {
		c.Put(key("m@v1#ab", "t", uint64(i)), i, now)
	}
	// Touch 0 so it is MRU; inserting a 5th must evict 1 (the LRU).
	if _, _, ok := c.Get(key("m@v1#ab", "t", 0), now); !ok {
		t.Fatal("entry 0 missing")
	}
	c.Put(key("m@v1#ab", "t", 4), 4, now)

	if _, _, ok := c.Get(key("m@v1#ab", "t", 1), now); ok {
		t.Fatal("LRU entry 1 survived eviction")
	}
	for _, d := range []uint64{0, 2, 3, 4} {
		if _, _, ok := c.Get(key("m@v1#ab", "t", d), now); !ok {
			t.Fatalf("entry %d evicted, want resident", d)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("bytes %d over budget %d", st.Bytes, st.MaxBytes)
	}
}

func TestSizeOfAndOversizedEntry(t *testing.T) {
	c := New(Config{
		MaxBytes: 1000,
		Shards:   1,
		SizeOf:   func(p any) int64 { return int64(p.(int)) },
	})
	now := time.Now()
	c.Put(key("a", "t", 1), 600, now)
	if c.Len() != 1 {
		t.Fatal("first entry not admitted")
	}
	// Over a whole shard's budget: refused outright, resident set untouched.
	c.Put(key("a", "t", 2), 5000, now)
	if _, _, ok := c.Get(key("a", "t", 2), now); ok {
		t.Fatal("oversized entry admitted")
	}
	if _, _, ok := c.Get(key("a", "t", 1), now); !ok {
		t.Fatal("oversized Put evicted the resident set")
	}
	// A second fitting entry evicts the first (600+600 > 1000).
	c.Put(key("a", "t", 3), 600, now)
	if _, _, ok := c.Get(key("a", "t", 1), now); ok {
		t.Fatal("budget not enforced with SizeOf")
	}
}

func TestInvalidateArtifact(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, Shards: 4, NegTTL: time.Minute})
	now := time.Now()
	// Entries for two versions spread across shards (distinct digests), plus
	// a negative entry pinned to the doomed version.
	for d := uint64(0); d < 32; d++ {
		c.Put(key("m@v1#aa", "t", d), d, now)
		c.Put(key("m@v2#bb", "t", d), d, now)
	}
	c.PutNegative(key("m@v1#aa", "t", 999), "tenant-a", now)

	if removed := c.InvalidateArtifact("m@v1#aa"); removed != 32 {
		t.Fatalf("InvalidateArtifact removed %d entries, want 32", removed)
	}
	st := c.Stats()
	if st.Entries != 32 {
		t.Fatalf("entries = %d after sweep, want 32 survivors", st.Entries)
	}
	if st.NegEntries != 0 {
		t.Fatalf("negative entry survived the artifact sweep: %d", st.NegEntries)
	}
	for d := uint64(0); d < 32; d++ {
		if _, _, ok := c.Get(key("m@v1#aa", "t", d), now); ok {
			t.Fatalf("swept entry %d still served", d)
		}
		if _, _, ok := c.Get(key("m@v2#bb", "t", d), now); !ok {
			t.Fatalf("survivor entry %d lost by the sweep", d)
		}
	}
	// Bytes reclaimed immediately, not merely unreachable.
	if st.Bytes != 32*defaultEntrySize {
		t.Fatalf("bytes = %d after sweep, want %d", st.Bytes, 32*defaultEntrySize)
	}
	if removed := c.InvalidateArtifact("m@v1#aa"); removed != 0 {
		t.Fatalf("second sweep removed %d, want 0", removed)
	}
}

func TestNegativeCache(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, Shards: 2, NegTTL: time.Second})
	now := time.Now()
	k := key("m@v1#aa", "patrol", 77)

	if c.Negative(k, "a", now) {
		t.Fatal("negative hit on empty cache")
	}
	c.PutNegative(k, "a", now)
	if !c.Negative(k, "a", now.Add(999*time.Millisecond)) {
		t.Fatal("negative entry expired before NegTTL")
	}
	// Negative entries are disjoint from positive ones: the same key still
	// misses the result cache.
	if _, _, ok := c.Get(k, now); ok {
		t.Fatal("negative entry served as a positive result")
	}
	if c.Negative(k, "a", now.Add(1001*time.Millisecond)) {
		t.Fatal("negative entry served after NegTTL")
	}
	st := c.Stats()
	if st.NegInserts != 1 || st.NegHits != 1 {
		t.Fatalf("neg inserts/hits = %d/%d, want 1/1", st.NegInserts, st.NegHits)
	}
	if st.NegEntries != 0 {
		t.Fatalf("expired negative entry still resident: %d", st.NegEntries)
	}
}

// A quarantine verdict is scoped to the tenant whose traffic earned it:
// tenant A's poison mark on a digest must not blind tenant B to it.
func TestNegativeCacheTenantScoped(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, Shards: 2, NegTTL: time.Minute})
	now := time.Now()
	k := key("m@v1#aa", "patrol", 42)
	c.PutNegative(k, "a", now)
	if !c.Negative(k, "a", now) {
		t.Fatal("tenant a's own verdict not visible")
	}
	if c.Negative(k, "b", now) {
		t.Fatal("tenant a's quarantine verdict leaked to tenant b")
	}
	// The default (empty) tenant is its own scope too.
	if c.Negative(k, "", now) {
		t.Fatal("tenant a's quarantine verdict leaked to the default tenant")
	}
}

func TestNegativeCacheDisabledAndCapped(t *testing.T) {
	// No NegTTL: PutNegative is a no-op.
	off := New(Config{MaxBytes: 1 << 20, Shards: 1})
	now := time.Now()
	off.PutNegative(key("a", "t", 1), "a", now)
	if off.Negative(key("a", "t", 1), "a", now) {
		t.Fatal("negative cache active without NegTTL")
	}

	// Capped: a storm of distinct poison digests cannot grow without bound.
	on := New(Config{MaxBytes: 1 << 20, Shards: 1, NegTTL: time.Minute})
	for d := uint64(0); d < 3*maxNegativesPerShard; d++ {
		on.PutNegative(key("a", "t", d), "a", now)
	}
	if n := on.Stats().NegEntries; n > maxNegativesPerShard {
		t.Fatalf("negative entries %d exceed per-shard cap %d", n, maxNegativesPerShard)
	}
}

func TestDigestImage(t *testing.T) {
	a := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	b := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	if DigestImage(a) != DigestImage(b) {
		t.Fatal("identical tensors digest differently")
	}
	c := tensor.FromSlice([]float32{1, 2, 3, 5}, 1, 2, 2)
	if DigestImage(a) == DigestImage(c) {
		t.Fatal("different data digests collide")
	}
	d := tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2, 1)
	if DigestImage(a) == DigestImage(d) {
		t.Fatal("different shapes digest identically")
	}
	if DigestImage(nil) == 0 {
		t.Fatal("nil digest must be the offset basis, not 0")
	}
}

func TestShardRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 16}, {1, 1}, {2, 2}, {3, 4}, {16, 16}, {17, 32},
	} {
		c := New(Config{MaxBytes: 1 << 20, Shards: tc.in})
		if len(c.shards) != tc.want {
			t.Errorf("Shards %d -> %d shards, want %d", tc.in, len(c.shards), tc.want)
		}
	}
}

// TestConcurrentAccess hammers Get/Put/Stats from many goroutines; run
// with -race. Afterwards the books must balance: hits+misses equals the
// number of Gets issued.
func TestConcurrentAccess(t *testing.T) {
	c := New(Config{MaxBytes: 64 << 10, TTL: time.Minute, Shards: 8})
	const (
		goroutines = 8
		iters      = 2000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			now := time.Now()
			for i := 0; i < iters; i++ {
				k := key(fmt.Sprintf("m@v%d#s", i%3), "t", uint64(i%97))
				if _, _, ok := c.Get(k, now); !ok {
					c.Put(k, i, now)
				}
				if i%256 == 0 {
					_ = c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != goroutines*iters {
		t.Fatalf("hits %d + misses %d != %d gets", st.Hits, st.Misses, goroutines*iters)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("bytes %d over budget %d", st.Bytes, st.MaxBytes)
	}
}

// TestGetAllocs asserts the allocation-free hot path: a hit, a miss, and a
// Stats-free Put-replace must not allocate.
func TestGetAllocs(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, TTL: time.Minute, Shards: 4})
	now := time.Now()
	k := key("m@v1#ab", "patrol", 12345)
	c.Put(k, "payload", now)
	miss := key("m@v1#ab", "patrol", 54321)

	if n := testing.AllocsPerRun(1000, func() {
		if _, _, ok := c.Get(k, now); !ok {
			t.Fatal("miss on resident key")
		}
	}); n != 0 {
		t.Fatalf("Get(hit) allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, _, ok := c.Get(miss, now); ok {
			t.Fatal("hit on absent key")
		}
	}); n != 0 {
		t.Fatalf("Get(miss) allocates %.1f/op, want 0", n)
	}
}
