// Package rcache is a content-addressed detection-result cache for the
// serving layer. Entries are keyed by (artifact, task, image digest):
//
//   - Artifact is the full versioned artifact ID (name@vN#sum) the request
//     was routed to. Because every published version gets a fresh ID and
//     routing always resolves to the active version, a publish or rollback
//     naturally invalidates stale entries — no epoch machinery: requests
//     simply stop asking for the demoted version's keys, and if a rollback
//     restores an old version its still-TTL-valid entries become reachable
//     again.
//   - Task is part of the key because post-inference knowledge-graph
//     filtering is task-specific: the same image under the same model still
//     decodes against different priors per task.
//   - Digest is a 64-bit FNV-1a content hash of the image tensor (shape and
//     float bits), so identical frames from consecutive requests or
//     concurrent clients hit regardless of tensor identity.
//
// The cache is a sharded LRU: keys map to one of N power-of-two shards by
// digest, each shard owning its own mutex, entry map, and LRU list, so
// concurrent hits on distinct images never contend on a shared lock. The
// byte budget is split evenly across shards and enforced per shard with LRU
// eviction. Counters (hits, misses, stale, evictions, inserts) are padded
// per-shard atomics aggregated only in Stats.
//
// The hot path is allocation-free: Get performs a map lookup with a
// comparable struct key and an intrusive LRU touch, and never allocates on
// hit or miss.
//
// Sharding spreads *distinct* digests; it does nothing for one viral digest
// whose readers all hash to the same shard. When Config.HotThreshold is set,
// a contention-adaptive hot tier (see hot.go) promotes entries whose digests
// an MJRTY frequency estimator proves hot into a replicated read-only table:
// promoted lookups take no mutex, relink no LRU, and touch no shared mutable
// cache line. Promotion, decay-driven demotion, and byte pressure are
// managed by the tier; MarkHot lets an upstream hint (the gateway's
// fleet-wide hot verdict) pre-promote, and Replicated exposes the
// replica-only probe for singleflight fast paths.
//
// Two auxiliary mechanisms round out the invalidation story:
//
//   - InvalidateArtifact sweeps all entries pinned to one versioned artifact
//     ID, so demoting a poisoned version reclaims its bytes immediately
//     instead of waiting for TTL expiry or LRU pressure.
//   - A short-TTL negative cache (PutNegative/Negative, enabled by
//     Config.NegTTL) marks keys the serving layer quarantined as poison, so
//     a hot poison frame fails fast instead of re-executing — and
//     re-panicking — on every arrival.
package rcache

import (
	"sync"
	"sync/atomic"
	"time"
)

// Key identifies one cacheable detection result.
type Key struct {
	// Artifact is the full versioned artifact ID (name@vN#sum) the request
	// routes to. Results computed by a different version must not be stored
	// under this key.
	Artifact string
	// Task names the mission whose knowledge-graph priors filtered the
	// result.
	Task string
	// Digest is the content hash of the input image (see DigestImage).
	Digest uint64
}

// Config sizes a Cache.
type Config struct {
	// MaxBytes is the total byte budget across all shards. Must be
	// positive; it is split evenly per shard and enforced with LRU
	// eviction.
	MaxBytes int64
	// TTL bounds entry lifetime. Zero disables expiry: entries live until
	// evicted by the byte budget. A TTL keeps a rolled-back version's
	// resurrected entries from serving arbitrarily old results.
	TTL time.Duration
	// Shards is the number of lock shards, rounded up to a power of two.
	// Zero picks a default (16) sized for small-host parallelism.
	Shards int
	// SizeOf estimates the resident bytes of a payload for budget
	// accounting. Nil falls back to a flat per-entry estimate.
	SizeOf func(payload any) int64
	// NegTTL enables the negative cache: keys marked with PutNegative are
	// reported by Negative for this long. Zero disables negative caching
	// (PutNegative becomes a no-op). Keep it short — a negative entry
	// suppresses re-execution of content the serving layer quarantined as
	// poison, and the only way to discover a fixed kernel is to let the
	// content through again.
	NegTTL time.Duration

	// HotThreshold enables the hot replica tier: a digest seen this many
	// times within a decay window (by the tier's MJRTY estimator) has its
	// entry promoted to the lock-free replicated table. Zero disables the
	// tier entirely (no detector, no replica memory).
	HotThreshold int
	// HotDecay is the estimator's decay window in arrivals (counts halve
	// every HotDecay slow-path lookups); it is also the cadence of the
	// demotion sweep. Zero picks freq.DefaultDecay.
	HotDecay int
	// HotMaxBytes bounds the replica tier's memory. Replicas are copies —
	// their bytes are charged here, on top of the shard budget, not against
	// MaxBytes. Zero picks MaxBytes/8.
	HotMaxBytes int64
}

// defaultEntrySize is the per-entry accounting charge when no SizeOf is
// configured: key strings, map/list bookkeeping, and a small payload.
const defaultEntrySize = 512

// entry is one cached result, threaded onto its shard's intrusive LRU list.
type entry struct {
	key     Key
	payload any
	// model is the artifact ID that computed the payload (== key.Artifact
	// by the caller's fill contract).
	model   string
	bytes   int64
	expires time.Time // zero when the cache has no TTL

	// Intrusive doubly-linked LRU list (head = most recent). An intrusive
	// list keeps Get allocation-free: touching an entry relinks existing
	// nodes instead of allocating container/list elements.
	prev, next *entry
}

// maxNegativesPerShard caps the negative map so a storm of distinct poison
// digests cannot grow it without bound; at the cap, inserting purges expired
// entries first and then drops an arbitrary one.
const maxNegativesPerShard = 1024

// negKey scopes a quarantine verdict to the tenant whose request earned it.
// Positive entries are shared across tenants (a detection result is a pure
// function of version+task+content), but a negative verdict is evidence
// gathered from one tenant's traffic: scoping it prevents tenant A's poison
// storm from blinding tenant B to content B could serve fine (for example
// after a kernel rollback A has not re-probed yet).
type negKey struct {
	Key
	tenant string
}

// shard is one lock stripe: a map + intrusive LRU under a private mutex,
// with padded atomic counters so two shards never share a cache line.
type shard struct {
	mu      sync.Mutex
	entries map[Key]*entry
	// neg maps (tenant-scoped) quarantined keys to their negative-entry
	// expiry (nil until the first PutNegative on this shard).
	neg map[negKey]time.Time
	// head is most-recently-used, tail least. nil when empty.
	head, tail *entry
	bytes      int64
	maxBytes   int64

	hits      atomic.Uint64
	misses    atomic.Uint64
	stale     atomic.Uint64
	evictions atomic.Uint64
	inserts   atomic.Uint64

	negHits    atomic.Uint64
	negInserts atomic.Uint64

	_ [64]byte // keep neighbouring shards' hot fields off this cache line
}

// Cache is a sharded content-addressed result cache. Safe for concurrent
// use.
type Cache struct {
	shards []*shard
	mask   uint64
	ttl    time.Duration
	negTTL time.Duration
	sizeOf func(any) int64
	// hot is the replica tier; nil when Config.HotThreshold is zero, and
	// every use is behind that nil check.
	hot *hotTier
}

// New builds a cache from cfg. Panics when MaxBytes is not positive (a
// disabled cache is a nil *Cache, not a zero-budget one).
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		panic("rcache: MaxBytes must be positive")
	}
	n := cfg.Shards
	if n <= 0 {
		n = 16
	}
	// Round up to a power of two so shard selection is a mask, not a mod.
	pow := 1
	for pow < n {
		pow <<= 1
	}
	per := cfg.MaxBytes / int64(pow)
	if per <= 0 {
		per = 1
	}
	c := &Cache{
		shards: make([]*shard, pow),
		mask:   uint64(pow - 1),
		ttl:    cfg.TTL,
		negTTL: cfg.NegTTL,
		sizeOf: cfg.SizeOf,
	}
	for i := range c.shards {
		c.shards[i] = &shard{entries: map[Key]*entry{}, maxBytes: per}
	}
	if cfg.HotThreshold > 0 {
		hotBytes := cfg.HotMaxBytes
		if hotBytes <= 0 {
			hotBytes = cfg.MaxBytes / 8
			if hotBytes <= 0 {
				hotBytes = cfg.MaxBytes
			}
		}
		c.hot = newHotTier(cfg.HotThreshold, cfg.HotDecay, hotBytes)
	}
	return c
}

// shardFor selects the lock stripe for a key. Digest bits are already
// uniformly mixed by FNV, so the low bits suffice.
func (c *Cache) shardFor(k Key) *shard {
	return c.shards[k.Digest&c.mask]
}

// Get returns the cached payload and producing model for k, if present and
// not expired at now. Expired entries are removed and counted stale (a
// distinct signal from a plain miss: the entry existed but aged out).
// Allocation-free on both hit and miss.
//
// With the hot tier enabled, promoted keys are answered from the replica
// table first — no mutex, no LRU write — and only replica misses fall
// through to the sharded path, where each lookup also feeds the promotion
// detector (replicated hits deliberately do not: the detector's slot mutex
// is the shared line the tier exists to avoid).
func (c *Cache) Get(k Key, now time.Time) (payload any, model string, ok bool) {
	if c.hot != nil {
		if payload, model, ok = c.hot.get(k, now); ok {
			return payload, model, true
		}
	}
	sh := c.shardFor(k)
	sh.mu.Lock()
	e := sh.entries[k]
	if e == nil {
		sh.mu.Unlock()
		sh.misses.Add(1)
		if c.hot != nil {
			// Count the arrival so the digest can trip hot while its result
			// is still being computed; the eventual Put fill-promotes.
			c.hot.record(k, now)
		}
		return nil, "", false
	}
	if !e.expires.IsZero() && now.After(e.expires) {
		sh.removeLocked(e)
		sh.mu.Unlock()
		sh.stale.Add(1)
		sh.misses.Add(1)
		if c.hot != nil {
			c.hot.record(k, now)
		}
		return nil, "", false
	}
	sh.touchLocked(e)
	payload, model = e.payload, e.model
	bytes, expires := e.bytes, e.expires
	sh.mu.Unlock()
	sh.hits.Add(1)
	if c.hot != nil && c.hot.record(k, now) {
		c.hot.promote(k, payload, model, bytes, expires)
	}
	return payload, model, true
}

// Put stores payload as the result for k, computed by k.Artifact. An
// existing entry for k is replaced (refreshing its TTL). Entries larger
// than a whole shard's budget are not admitted.
func (c *Cache) Put(k Key, payload any, now time.Time) {
	size := int64(defaultEntrySize)
	if c.sizeOf != nil {
		if s := c.sizeOf(payload); s > 0 {
			size = s
		}
	}
	sh := c.shardFor(k)
	if size > sh.maxBytes {
		return
	}
	var expires time.Time
	if c.ttl > 0 {
		expires = now.Add(c.ttl)
	}
	sh.mu.Lock()
	if e := sh.entries[k]; e != nil {
		sh.bytes += size - e.bytes
		e.payload, e.model, e.bytes, e.expires = payload, k.Artifact, size, expires
		sh.touchLocked(e)
	} else {
		e := &entry{key: k, payload: payload, model: k.Artifact, bytes: size, expires: expires}
		sh.entries[k] = e
		sh.pushFrontLocked(e)
		sh.bytes += size
		sh.inserts.Add(1)
	}
	for sh.bytes > sh.maxBytes && sh.tail != nil {
		sh.removeLocked(sh.tail)
		sh.evictions.Add(1)
	}
	sh.mu.Unlock()
	if c.hot != nil && c.hot.tracker.Hot(k.Digest) {
		// Fill-promote: the digest went hot while its result was in flight
		// (arrivals counted as misses above), or an already-promoted entry
		// was refreshed with a new payload.
		c.hot.promote(k, payload, k.Artifact, size, expires)
	}
}

// InvalidateArtifact sweeps every shard and drops all entries (and negative
// entries) whose key pins the given artifact ID, returning how many positive
// entries were removed. A demoted/poisoned version's results become
// unreachable through routing anyway — routing stops resolving to its ID —
// but the sweep reclaims their bytes immediately instead of waiting for TTL
// expiry or LRU pressure, and guarantees a rollback-then-republish of the
// same version string can never resurrect them. Shard locks are taken one
// at a time, so concurrent hits on other shards never stall.
func (c *Cache) InvalidateArtifact(artifact string) int {
	removed := 0
	if c.hot != nil {
		// Retire replicas first and in one copy-on-write publish: once this
		// returns, no lock-free reader can see any of the artifact's entries,
		// so the registry can let the next snapshot serve.
		removed += c.hot.retireArtifact(artifact)
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		for k, e := range sh.entries {
			if k.Artifact == artifact {
				sh.removeLocked(e)
				removed++
			}
		}
		for k := range sh.neg {
			if k.Artifact == artifact {
				delete(sh.neg, k)
			}
		}
		sh.mu.Unlock()
	}
	return removed
}

// RetireReplicas drops every hot-tier replica pinned to one versioned
// artifact ID in a single copy-on-write publish, leaving the sharded tier
// alone, and returns how many replicas were retired. This is the registry
// epoch-change reconciliation: shard entries invalidate naturally (requests
// stop asking for a retired version's keys, and a rollback may legitimately
// resurrect its still-TTL-valid entries), but replicas answer lock-free
// probes keyed by whatever the prober believes is active — they must be
// gone before a new routing snapshot serves. A no-op without the hot tier.
func (c *Cache) RetireReplicas(artifact string) int {
	if c.hot == nil {
		return 0
	}
	return c.hot.retireArtifact(artifact)
}

// PutNegative marks k as quarantined for one tenant: Negative reports it
// for the cache's NegTTL. Used by the serving layer so a hot poison frame —
// content proven to panic or hang its kernel — fails fast instead of
// re-executing (and re-panicking, re-tripping breakers) on
// every arrival. The verdict is tenant-scoped (see negKey): only the tenant
// whose traffic earned the quarantine is refused. A no-op when the cache
// has no NegTTL.
func (c *Cache) PutNegative(k Key, tenant string, now time.Time) {
	if c.negTTL <= 0 {
		return
	}
	nk := negKey{Key: k, tenant: tenant}
	sh := c.shardFor(k)
	sh.mu.Lock()
	if sh.neg == nil {
		sh.neg = map[negKey]time.Time{}
	}
	if _, exists := sh.neg[nk]; !exists && len(sh.neg) >= maxNegativesPerShard {
		// Purge expired first; if the storm is all live, drop an arbitrary
		// victim — losing a negative entry only costs one re-execution.
		for ok, exp := range sh.neg {
			if now.After(exp) {
				delete(sh.neg, ok)
			}
		}
		for ok := range sh.neg {
			if len(sh.neg) < maxNegativesPerShard {
				break
			}
			delete(sh.neg, ok)
		}
	}
	sh.neg[nk] = now.Add(c.negTTL)
	sh.mu.Unlock()
	sh.negInserts.Add(1)
}

// Negative reports whether k is under an unexpired negative entry for
// tenant at now. Expired entries are removed on probe. Allocation-free.
func (c *Cache) Negative(k Key, tenant string, now time.Time) bool {
	if c.negTTL <= 0 {
		return false
	}
	nk := negKey{Key: k, tenant: tenant}
	sh := c.shardFor(k)
	sh.mu.Lock()
	exp, ok := sh.neg[nk]
	if ok && now.After(exp) {
		delete(sh.neg, nk)
		ok = false
	}
	sh.mu.Unlock()
	if ok {
		sh.negHits.Add(1)
	}
	return ok
}

// MarkHot force-feeds the promotion detector with k's digest (an upstream
// hint — the gateway's fleet-wide hot verdict arriving as X-Itask-Hot —
// knows about replicated traffic this process hasn't seen yet) and, when the
// sharded tier already holds k, promotes it immediately. A no-op without the
// hot tier. The detector's Force never displaces a hotter incumbent, so a
// spoofed or stale hint cannot evict genuinely hot slots.
func (c *Cache) MarkHot(k Key, now time.Time) {
	if c.hot == nil {
		return
	}
	c.hot.tracker.Force(k.Digest)
	sh := c.shardFor(k)
	sh.mu.Lock()
	e := sh.entries[k]
	var payload any
	var model string
	var bytes int64
	var expires time.Time
	if e != nil && (e.expires.IsZero() || !now.After(e.expires)) {
		payload, model, bytes, expires = e.payload, e.model, e.bytes, e.expires
	} else {
		e = nil
	}
	sh.mu.Unlock()
	if e != nil {
		c.hot.promote(k, payload, model, bytes, expires)
	}
}

// Replicated probes only the hot replica table: a hit is the full lock-free
// fast path (counted as a hot hit), a miss means k is simply not promoted —
// the sharded tier is not consulted and no counters move. The serving
// layer's singleflight uses it so a promoted digest's readers never enter a
// flight table stripe.
func (c *Cache) Replicated(k Key, now time.Time) (payload any, model string, ok bool) {
	if c.hot == nil {
		return nil, "", false
	}
	return c.hot.get(k, now)
}

// pushFrontLocked links e as most-recently-used. Caller holds sh.mu.
func (sh *shard) pushFrontLocked(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// touchLocked moves an existing entry to the front. Caller holds sh.mu.
func (sh *shard) touchLocked(e *entry) {
	if sh.head == e {
		return
	}
	// Unlink (e is not head, so e.prev != nil).
	e.prev.next = e.next
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev = nil
	e.next = sh.head
	sh.head.prev = e
	sh.head = e
}

// removeLocked unlinks e from the list and map and returns its bytes to the
// budget. Caller holds sh.mu.
func (sh *shard) removeLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
	delete(sh.entries, e.key)
	sh.bytes -= e.bytes
}

// Stats is a point-in-time aggregate across shards, shaped for /metricsz.
type Stats struct {
	// Hits/Misses count Get outcomes; Stale is the subset of misses where
	// an entry existed but had outlived the TTL.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Stale  uint64 `json:"stale"`
	// Inserts counts first-time admissions; Evictions counts entries
	// dropped to fit the byte budget.
	Inserts   uint64 `json:"inserts"`
	Evictions uint64 `json:"evictions"`
	// Entries/Bytes are current occupancy; MaxBytes the configured budget.
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
	Shards   int   `json:"shards"`
	// Negative-cache behaviour: quarantined keys currently marked, probes
	// answered "still quarantined", and marks recorded.
	NegEntries int    `json:"neg_entries,omitempty"`
	NegHits    uint64 `json:"neg_hits,omitempty"`
	NegInserts uint64 `json:"neg_inserts,omitempty"`
	// Hot replica tier (zero values when the tier is disabled). HotHits is
	// included in Hits; HotBytes counts replica copies, charged against
	// HotMaxBytes on top of the shard budget.
	HotEntries    int    `json:"hot_entries,omitempty"`
	HotBytes      int64  `json:"hot_bytes,omitempty"`
	HotMaxBytes   int64  `json:"hot_max_bytes,omitempty"`
	HotHits       uint64 `json:"hot_hits,omitempty"`
	HotPromotions uint64 `json:"hot_promotions,omitempty"`
	HotDemotions  uint64 `json:"hot_demotions,omitempty"`
}

// Stats aggregates all shards. Counter reads are atomic; occupancy briefly
// takes each shard's lock in turn (never all at once), so a snapshot never
// stalls concurrent hits on other shards.
func (c *Cache) Stats() Stats {
	var st Stats
	st.Shards = len(c.shards)
	for _, sh := range c.shards {
		st.Hits += sh.hits.Load()
		st.Misses += sh.misses.Load()
		st.Stale += sh.stale.Load()
		st.Inserts += sh.inserts.Load()
		st.Evictions += sh.evictions.Load()
		st.NegHits += sh.negHits.Load()
		st.NegInserts += sh.negInserts.Load()
		st.MaxBytes += sh.maxBytes
		sh.mu.Lock()
		st.Entries += len(sh.entries)
		st.NegEntries += len(sh.neg)
		st.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	if c.hot != nil {
		c.hot.snapshotInto(&st)
	}
	return st
}

// Len reports the current number of entries across all shards.
func (c *Cache) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}
