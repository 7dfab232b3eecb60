package rcache

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"itask/internal/freq"
)

// hot.go: the contention-adaptive hot tier. PR 6 fixed hot-content skew
// *across* shards (gateway hot-key replication); inside one serve process a
// viral digest still funnels every reader through a single cache shard's
// mutex — Get takes the lock, relinks the LRU, and bumps a per-shard hit
// counter, so N concurrent readers of one frame serialize on one lock and
// bounce two cache lines no matter how many shards the cache has. After
// Doppel's contention-adaptive split-phase design (Narula et al.), entries
// whose digests the MJRTY estimator (internal/freq, shared with the
// gateway) proves hot are *promoted* out of their shard into a replicated
// read-only table:
//
//   - The table itself is an immutable map behind an atomic pointer
//     (copy-on-write: promotion, demotion, and invalidation build a fresh
//     map and publish it). Readers load the pointer and look up — no mutex,
//     and because the map is never written in place, the lines they touch
//     stay in shared state across every core instead of ping-ponging.
//   - Hit accounting is commutative per-P counters: each promoted entry
//     carries a GOMAXPROCS-sized array of cache-line-padded counters, and a
//     reader increments the stripe picked by its own stack address — two
//     concurrently running goroutines land on different lines with high
//     probability. Totals are reconciled on demand (Stats, and the decay
//     sweep that demotes entries whose replicated traffic dried up).
//   - Promoted hits skip the LRU entirely. Recency tracking is what forces
//     writes on a read path; for the handful of provably-hot entries the
//     decay sweep is the eviction signal instead.
//
// The tier never weakens the cache's version discipline: replica keys pin
// full versioned artifact IDs exactly like shard entries, and
// InvalidateArtifact (driven by registry publish/demote/rollback through
// the serve layer's retirement hook, before the new routing snapshot
// serves) retires every replica of the artifact in the same copy-on-write
// publish that sweeps the shards — a promoted entry cannot outlive its
// version.

// hotStripePad is one cache-line-padded commutative hit counter.
type hotStripePad struct {
	n atomic.Uint64
	_ [64 - 8]byte
}

// hotEntry is one promoted (replicated, read-only) cache entry. All fields
// except hits and swept are immutable after promotion; hits are the per-P
// commutative counters, and swept is the reconciler's bookkeeping (only
// ever touched under hotTier.mu).
type hotEntry struct {
	payload any
	model   string
	bytes   int64
	expires time.Time // zero when the cache has no TTL
	hits    []hotStripePad
	// swept is the hit total at the last decay sweep; fresh marks an entry
	// promoted since the last sweep (it gets one full window before the
	// "did it earn threshold replicated hits" demotion test applies).
	swept uint64
	fresh bool
}

func (e *hotEntry) total() uint64 {
	var t uint64
	for i := range e.hits {
		t += e.hits[i].n.Load()
	}
	return t
}

// hotTable is one immutable published generation of the replica table.
type hotTable struct {
	entries map[Key]*hotEntry
	bytes   int64
}

// hotTier owns the replica table, the shared promotion detector, and the
// tier counters. All mutations serialize on mu and publish fresh tables;
// the read path touches only table (an atomic load) and an entry's own
// counter stripe.
type hotTier struct {
	tracker  *freq.Tracker
	maxBytes int64

	table atomic.Pointer[hotTable]
	mu    sync.Mutex
	// retired is every artifact ID ever passed to retireArtifact. Promotion
	// refuses retired artifacts, which closes the race where a reader that
	// routed before a registry swap promotes its (now retired) version after
	// the swap's retirement pass already ran — without this, such a replica
	// would linger until the next decay sweep. Growth is one string per
	// publish/demotion, the same asymptotics as the registry's own version
	// history. Guarded by mu.
	retired map[string]struct{}

	stripes    int
	stripeMask uint64

	promotions atomic.Uint64
	demotions  atomic.Uint64
	// retiredHits folds demoted entries' accumulated hit counters so
	// Stats.HotHits stays monotonic across promotion churn. Only written
	// under mu.
	retiredHits atomic.Uint64
}

// newHotTier builds the tier, with GOMAXPROCS hit-counter stripes per
// promoted entry rounded up to a power of two. threshold <= 0 disables it
// (nil tier).
func newHotTier(threshold, decay int, maxBytes int64) *hotTier {
	if threshold <= 0 {
		return nil
	}
	pow := 1
	for pow < runtime.GOMAXPROCS(0) {
		pow <<= 1
	}
	t := &hotTier{
		tracker:    freq.New(threshold, freq.DefaultSlots, decay),
		maxBytes:   maxBytes,
		stripes:    pow,
		stripeMask: uint64(pow - 1),
		retired:    map[string]struct{}{},
	}
	t.table.Store(&hotTable{entries: map[Key]*hotEntry{}})
	return t
}

// stripeIdx picks this goroutine's counter stripe from the address of a
// stack variable: goroutine stacks are distinct allocations, so concurrent
// readers spread across stripes without any shared state, a runtime hook,
// or an allocation (the variable never escapes — it is only ever folded
// into a uintptr).
func (t *hotTier) stripeIdx() uint64 {
	var anchor byte
	return freq.Mix64(uint64(uintptr(unsafe.Pointer(&anchor)))) & t.stripeMask
}

// get is the replicated read path: one atomic pointer load, one lookup in
// an immutable map, one padded per-P counter increment. No mutex, no shared
// mutable cache line, no allocation. Expired replicas miss (the caller
// falls through to the sharded path) and are demoted out of band.
func (t *hotTier) get(k Key, now time.Time) (payload any, model string, ok bool) {
	e := t.table.Load().entries[k]
	if e == nil {
		return nil, "", false
	}
	if !e.expires.IsZero() && now.After(e.expires) {
		t.dropExpired(k, e)
		return nil, "", false
	}
	e.hits[t.stripeIdx()].n.Add(1)
	return e.payload, e.model, true
}

// record counts one slow-path arrival of k's digest with the promotion
// detector and reports whether the digest is currently hot. Replicated hits
// never call record — the detector's slot mutex is exactly the kind of
// shared line the tier exists to avoid — so a promoted digest stops feeding
// the estimator and its slot decays on other traffic's clock; the decay
// sweep (run when the tracker crosses a window boundary) uses the replica's
// own hit counters to decide whether it is still earning its promotion.
func (t *hotTier) record(k Key, now time.Time) bool {
	hot, swept := t.tracker.Record(k.Digest)
	if swept {
		t.sweep(now)
	}
	return hot
}

// promote copies an entry into a fresh table generation. Entries over the
// tier budget are refused; when the budget is tight, coldest-first (fewest
// replicated hits) incumbents are demoted to make room, but an incumbent is
// never displaced by a colder candidate.
func (t *hotTier) promote(k Key, payload any, model string, bytes int64, expires time.Time) {
	if bytes > t.maxBytes {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dead := t.retired[k.Artifact]; dead {
		return // never resurrect a retired version's replicas
	}
	cur := t.table.Load()
	if e := cur.entries[k]; e != nil {
		// Payloads are opaque (in production a slice: not comparable), and a
		// key is content-addressed, so the same model, size and expiry mean
		// the same fill.
		if e.model == model && e.bytes == bytes && e.expires.Equal(expires) {
			return // already replicated, nothing changed
		}
		// Refreshed fill (e.g. a re-execution that restarted the TTL):
		// republish with the new payload, keeping the hit history.
		next := cloneHotTable(cur)
		ne := *e
		ne.payload, ne.model, ne.bytes, ne.expires = payload, model, bytes, expires
		next.bytes += bytes - e.bytes
		next.entries[k] = &ne
		t.table.Store(next)
		return
	}
	next := cloneHotTable(cur)
	for next.bytes+bytes > t.maxBytes {
		victim, ve := coldestHot(next)
		if ve == nil || ve.fresh || ve.total()-ve.swept >= uint64(t.tracker.Threshold()) {
			// Every incumbent is inside its grace window or still earning
			// threshold-rate traffic; the newcomer waits for the next sweep
			// to free room.
			return
		}
		delete(next.entries, victim)
		next.bytes -= ve.bytes
		t.retiredHits.Add(ve.total())
		t.demotions.Add(1)
	}
	next.entries[k] = &hotEntry{
		payload: payload,
		model:   model,
		bytes:   bytes,
		expires: expires,
		hits:    make([]hotStripePad, t.stripes),
		fresh:   true,
	}
	next.bytes += bytes
	t.table.Store(next)
	t.promotions.Add(1)
}

// coldestHot returns the entry with the fewest accumulated hits.
func coldestHot(tbl *hotTable) (Key, *hotEntry) {
	var ck Key
	var ce *hotEntry
	var cold uint64
	for k, e := range tbl.entries {
		if tot := e.total(); ce == nil || tot < cold {
			ck, ce, cold = k, e, tot
		}
	}
	return ck, ce
}

// sweep demotes replicas that stopped earning their keep: an entry (past
// its first full window) whose replicated hits since the last sweep fell
// below the promotion threshold, or whose TTL lapsed, is dropped back to
// the sharded tier. Runs once per tracker decay window, off the replicated
// read path.
func (t *hotTier) sweep(now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.table.Load()
	if len(cur.entries) == 0 {
		return
	}
	threshold := uint64(t.tracker.Threshold())
	var doomed []Key
	for k, e := range cur.entries {
		expired := !e.expires.IsZero() && now.After(e.expires)
		tot := e.total()
		if expired || (!e.fresh && tot-e.swept < threshold) {
			doomed = append(doomed, k)
			continue
		}
		e.swept = tot
		e.fresh = false
	}
	if len(doomed) == 0 {
		return
	}
	next := cloneHotTable(cur)
	for _, k := range doomed {
		e := next.entries[k]
		next.bytes -= e.bytes
		delete(next.entries, k)
		t.retiredHits.Add(e.total())
		t.demotions.Add(1)
	}
	t.table.Store(next)
}

// dropExpired demotes one replica whose TTL lapsed under a reader.
func (t *hotTier) dropExpired(k Key, e *hotEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.table.Load()
	if cur.entries[k] != e {
		return // already replaced or demoted
	}
	next := cloneHotTable(cur)
	next.bytes -= e.bytes
	delete(next.entries, k)
	t.retiredHits.Add(e.total())
	t.demotions.Add(1)
	t.table.Store(next)
}

// retireArtifact drops every replica pinned to one versioned artifact ID in
// a single table publish, so after it returns no reader can find any of the
// artifact's entries. Returns the number of replicas retired.
func (t *hotTier) retireArtifact(artifact string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.retired[artifact] = struct{}{}
	cur := t.table.Load()
	var doomed []Key
	for k := range cur.entries {
		if k.Artifact == artifact {
			doomed = append(doomed, k)
		}
	}
	if len(doomed) == 0 {
		return 0
	}
	next := cloneHotTable(cur)
	for _, k := range doomed {
		e := next.entries[k]
		next.bytes -= e.bytes
		delete(next.entries, k)
		t.retiredHits.Add(e.total())
		t.demotions.Add(1)
	}
	t.table.Store(next)
	return len(doomed)
}

func cloneHotTable(cur *hotTable) *hotTable {
	next := &hotTable{entries: make(map[Key]*hotEntry, len(cur.entries)+1), bytes: cur.bytes}
	for k, e := range cur.entries {
		next.entries[k] = e
	}
	return next
}

// snapshotInto reconciles the tier's commutative counters into a Stats
// snapshot: live entries' striped hit counters are summed on demand, and
// retiredHits carries the totals of demoted entries so HotHits (and the
// Hits aggregate it feeds) never moves backward under promotion churn.
func (t *hotTier) snapshotInto(st *Stats) {
	tbl := t.table.Load()
	st.HotEntries = len(tbl.entries)
	st.HotBytes = tbl.bytes
	st.HotMaxBytes = t.maxBytes
	st.HotPromotions = t.promotions.Load()
	st.HotDemotions = t.demotions.Load()
	var hits uint64
	for _, e := range tbl.entries {
		hits += e.total()
	}
	st.HotHits = hits + t.retiredHits.Load()
	st.Hits += st.HotHits
}
