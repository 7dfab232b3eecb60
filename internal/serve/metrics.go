package serve

import (
	"math"
	"math/bits"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"itask/internal/kernels"
	"itask/internal/rcache"
	"itask/internal/registry"
	"itask/internal/sched"
)

// The serving layer keeps one ledger: a flat array of atomic counters for the
// totals, the same array again for each tenant's and each model version's row
// (sync.Maps), and one log-bucket latency histogram type, used for the totals
// and per tenant. A request enters the books once, counted cAccepted, and
// leaves them once through settle, which updates the total, tenant and model
// rows together, so accepted = completed + failed + shed holds in total and
// for every tenant by construction rather than by call sites agreeing.
// Nothing on the write path locks, sorts or sizes itself to the host;
// snapshot() only loads atomics.

// counterIdx names one ledger counter. Keep numCounters last.
type counterIdx int

type counters [numCounters]atomic.Uint64

const (
	cAccepted counterIdx = iota
	cCompleted
	cFailed
	cRejectedFull
	cRejectedClosed
	cRejectedRoute
	cRejectedShape
	cRejectedBreaker
	cRejectedDeadline
	cShedExpired
	cShedCancelled

	// Fault-tolerance counters.
	cPanics           // backend panics recovered
	cWatchdogs        // executions abandoned by the watchdog
	cSLOBreaches      // successful executions slower than LatencySLO
	cBreakerOpens     // closed/half-open -> open transitions
	cDegradedRouted   // admissions rerouted to the fallback variant
	cDegradedServed   // requests completed on the fallback variant
	cVariantEvictions // cached variants dropped after panic/watchdog

	cBatches // successful backend executions, one request each

	// Zero-contention request path counters.
	cCacheHits        // requests served straight from the result cache
	cCacheMisses      // requests that had a cache key but found no entry
	cCoalesced        // followers served by a coalesced leader's execution
	cCoalescedRetried // followers re-executed after their leader failed

	// Invalidation counters.
	cQuarantineBlocked // admissions refused from the poison negative cache
	cArtifactSweeps    // result-cache entries reclaimed by demote sweeps

	// Multi-tenant admission counters.
	cRejectedBudget // admissions refused by a tenant's token-bucket budget
	cRejectedShare  // admissions refused by the weighted queue-share guard

	numCounters
)

// hist is a log-linear histogram of whole microseconds: values below histSub
// are exact, and above that every power of two splits into histSub equal
// buckets, so a bucket is never wider than 1/histSub (12.5 %) of its lower
// bound. record is one bits.Len64 and one atomic add; counts taken at two
// moments subtract bucket by bucket, and histograms merge by adding.
type hist [histBuckets]atomic.Uint64

const (
	histSub = 8
	// histBuckets reaches 2^32 µs (71 minutes); anything slower lands in
	// the last bucket.
	histBuckets = 30 * histSub
)

func histBucket(us uint64) int {
	if us < histSub {
		return int(us)
	}
	e := bits.Len64(us) - 1 // us is in [2^e, 2^(e+1)), e >= 3
	return min((e-2)*histSub+int(us>>(e-3))&(histSub-1), histBuckets-1)
}

func (h *hist) record(d time.Duration) {
	h[histBucket(uint64(max(d, 0)/time.Microsecond))].Add(1)
}

func (h *hist) load() (counts [histBuckets]uint64) {
	for i := range h {
		counts[i] = h[i].Load()
	}
	return counts
}

// histQuantile reads the q-quantile, in microseconds, from bucket counts as
// Snapshot.LatencyBuckets reports them (or from the difference of two
// scrapes): the midpoint of the bucket that holds the nearest-rank sample,
// so within half a bucket of it. Zero when the counts are empty.
func histQuantile(counts []uint64, q float64) float64 {
	var n uint64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := min(uint64(q*float64(n)), n-1)
	i := 0
	for ; rank >= counts[i]; i++ {
		rank -= counts[i]
	}
	if i < histSub {
		return float64(i) + 0.5
	}
	shift := i/histSub - 1
	return float64(uint64(histSub+i%histSub)<<shift) + float64(uint64(1)<<shift)/2
}

// metrics is the ledger. All observation methods are lock-free; only
// snapshot() aggregates.
type metrics struct {
	c   counters
	lat hist // admission-to-completion latency of completed requests

	// perModel maps variant string (versioned artifact ID) -> *modelRow, so
	// /metricsz can show a bad new version panicking while its rolled-back
	// predecessor serves.
	perModel sync.Map

	// perTenant maps tenant ID -> *tenantRow, so /metricsz can show one
	// tenant's poison storm failing and shedding next to another tenant's
	// clean completions. Bounded at maxTenantStats distinct tenants (see
	// tenant); overflow lumps into overflowTenant.
	perTenant sync.Map
	tenants   atomic.Int64
}

// maxTenantStats caps distinct per-tenant attribution entries; tenant IDs
// are length-bounded at the edge but not cardinality-bounded, and metrics
// must never become the unbounded map an attacker grows one header at a
// time.
const maxTenantStats = 1024

// overflowTenant aggregates attribution for tenants beyond maxTenantStats.
const overflowTenant = "~overflow"

// tenantRow is one tenant's books, in the counters it shares with the totals.
// A request resolves its row once and carries it (pending.row), so its
// admission and its outcome always land in the same row.
type tenantRow struct {
	c   counters
	lat hist
}

// modelRow is one variant version's completions, failures, panics and
// watchdog abandonments.
type modelRow struct {
	c        counters
	latSumNS atomic.Uint64
}

func newMetrics() *metrics { return &metrics{} }

func (m *metrics) inc(c counterIdx) { m.c[c].Add(1) }

// count adds one to c in the totals and in the tenant's row.
func (m *metrics) count(c counterIdx, row *tenantRow) {
	m.c[c].Add(1)
	row.c[c].Add(1)
}

// model returns (creating if needed) the row for one variant string.
func (m *metrics) model(name string) *modelRow {
	if mr, ok := m.perModel.Load(name); ok {
		return mr.(*modelRow)
	}
	mr, _ := m.perModel.LoadOrStore(name, &modelRow{})
	return mr.(*modelRow)
}

// tenant returns (creating if needed) the row for one tenant, redirecting
// to the shared overflow row once maxTenantStats distinct tenants exist.
func (m *metrics) tenant(name string) *tenantRow {
	if tr, ok := m.perTenant.Load(name); ok {
		return tr.(*tenantRow)
	}
	if m.tenants.Load() >= maxTenantStats && name != overflowTenant {
		return m.tenant(overflowTenant)
	}
	tr, loaded := m.perTenant.LoadOrStore(name, &tenantRow{})
	if !loaded {
		m.tenants.Add(1)
	}
	return tr.(*tenantRow)
}

// settle records how one admitted request left the server, in the total,
// tenant and model rows together. how is the counter that names the outcome:
// cCompleted (a backend execution completed it), cCacheHits (the result cache
// or its hot tier), cCoalesced (a flight leader's execution), cFailed,
// cShedCancelled or cShedExpired. model is the variant that executed or
// failed the request, empty when none did; total and degraded describe
// completions only.
func (m *metrics) settle(how counterIdx, row *tenantRow, model string, total time.Duration, degraded bool) {
	m.count(how, row)
	var mr *modelRow
	if model != "" {
		mr = m.model(model)
		mr.c[how].Add(1)
	}
	switch how {
	case cFailed, cShedCancelled, cShedExpired:
		return
	case cCacheHits, cCoalesced:
		m.count(cCompleted, row) // a completion that executed nothing
	case cCompleted:
		if degraded {
			m.inc(cDegradedServed)
		}
		if mr != nil {
			mr.latSumNS.Add(uint64(total))
		}
	default:
		panic("serve: settle: not an outcome counter")
	}
	m.lat.record(total)
	row.lat.record(total)
	if degraded {
		row.c[cDegradedServed].Add(1) // the tenant's row counts degraded followers too
	}
}

// fault counts one recovered panic (cPanics) or watchdog abandonment
// (cWatchdogs), in total and against the variant that suffered it.
func (m *metrics) fault(c counterIdx, variant string) {
	m.inc(c)
	if variant != "" {
		m.model(variant).c[c].Add(1)
	}
}

// Snapshot is a point-in-time view of the serving layer, shaped for the
// /metricsz endpoint.
type Snapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`

	// Admission counters. Accepted = Completed + Failed + ShedExpired +
	// ShedCancelled once the server is idle; a Rejected* request was never
	// accepted. RejectedDeadline counts requests whose deadline had already
	// passed on arrival, ShedExpired those whose deadline passed while queued.
	Accepted         uint64 `json:"accepted"`
	Completed        uint64 `json:"completed"`
	Failed           uint64 `json:"failed"`
	RejectedFull     uint64 `json:"rejected_queue_full"`
	RejectedClosed   uint64 `json:"rejected_shutting_down"`
	RejectedRoute    uint64 `json:"rejected_unroutable"`
	RejectedShape    uint64 `json:"rejected_bad_shape"`
	RejectedBreaker  uint64 `json:"rejected_breaker_open"`
	RejectedDeadline uint64 `json:"rejected_deadline_expired"`
	ShedExpired      uint64 `json:"shed_deadline_expired"`
	ShedCancelled    uint64 `json:"shed_cancelled"`

	// Fault-tolerance counters: recovered backend panics, watchdog-
	// abandoned executions, requests failed as the proven poison (their
	// execution panicked or hung), latency-SLO breaches, breaker trips,
	// traffic rerouted to / completed on the quantized fallback, and cached
	// variants evicted after a panic or hang.
	PanicsRecovered  uint64 `json:"panics_recovered"`
	WatchdogTimeouts uint64 `json:"watchdog_timeouts"`
	Quarantined      uint64 `json:"quarantined_poison"`
	SLOBreaches      uint64 `json:"slo_breaches"`
	BreakerOpens     uint64 `json:"breaker_opens"`
	DegradedRouted   uint64 `json:"degraded_routed"`
	DegradedServed   uint64 `json:"degraded_served"`
	VariantEvictions uint64 `json:"variant_evictions"`

	// Zero-contention request path: requests served straight from the
	// content-addressed result cache, requests that missed it, followers
	// served by a coalesced leader's single execution, and followers that
	// re-executed because their leader failed (a poisoned leader must
	// never fail its followers without re-execution).
	ResultCacheHits   uint64 `json:"result_cache_hits"`
	ResultCacheMisses uint64 `json:"result_cache_misses"`
	Coalesced         uint64 `json:"coalesced"`
	CoalescedRetried  uint64 `json:"coalesced_retried"`

	// Invalidation behaviour: admissions refused because their exact
	// content is negative-cached as proven poison, and result-cache entries
	// reclaimed immediately by a demoted version's artifact sweep.
	QuarantineBlocked uint64 `json:"quarantine_blocked,omitempty"`
	ArtifactSweeps    uint64 `json:"artifact_sweep_entries,omitempty"`

	// Multi-tenant admission: requests refused by a tenant's token-bucket
	// budget (HTTP 429 + Retry-After) and by the weighted queue-share
	// guard (a tenant at its reserved share of QueueCap while others'
	// slots stay protected).
	RejectedBudget uint64 `json:"rejected_tenant_budget,omitempty"`
	RejectedShare  uint64 `json:"rejected_tenant_share,omitempty"`

	// ResultCache surfaces the content-addressed detection cache's own
	// occupancy and churn when the cache is enabled (nil otherwise);
	// ResultCacheHitRate is Hits/(Hits+Misses) over its lifetime.
	// ReplicatedHitRate is the share of cache hits served from the hot
	// replica tier's lock-free table (hot_hits/hits; zero when the tier is
	// disabled) — the fraction of the read path that touched no mutex.
	ResultCache        *rcache.Stats `json:"result_cache,omitempty"`
	ResultCacheHitRate float64       `json:"result_cache_hit_rate,omitempty"`
	ReplicatedHitRate  float64       `json:"replicated_hit_rate,omitempty"`

	// Breakers lists every (variant, task) circuit-breaker state.
	Breakers []LaneBreaker `json:"breakers,omitempty"`

	// QueueDepth is the number of admitted requests waiting for a worker.
	QueueDepth int `json:"queue_depth"`

	// ThroughputRPS is completed requests per second of uptime.
	ThroughputRPS float64 `json:"throughput_rps"`

	// Admission-to-completion latency of every request completed since
	// start, microseconds: the midpoint of the LatencyBuckets bucket that
	// holds the nearest-rank sample.
	LatencyP50US float64 `json:"latency_p50_us"`
	LatencyP95US float64 `json:"latency_p95_us"`
	LatencyP99US float64 `json:"latency_p99_us"`
	// LatencyBuckets is that histogram's counts, trailing zeros trimmed.
	// Bucket i < 8 counts latencies of i whole µs; bucket i >= 8 counts
	// [(8+i%8) << (i/8-1), +1 << (i/8-1)) µs. The counts only grow, so
	// subtracting an earlier scrape bucket by bucket gives the histogram of
	// the time between the two.
	LatencyBuckets []uint64 `json:"latency_buckets,omitempty"`

	// Batches counts successful backend executions. Every execution serves
	// one request, so BatchHist is always [Batches]: the histogram of batch
	// sizes 1..1.
	Batches   uint64   `json:"batches"`
	BatchHist []uint64 `json:"batch_hist"`

	// Cache surfaces the scheduler's model-cache stats when the backend
	// exposes them (nil otherwise); CacheHitRate is Hits/(Hits+Misses).
	Cache        *sched.CacheStats `json:"cache,omitempty"`
	CacheHitRate float64           `json:"cache_hit_rate"`

	// PerModel attributes completions, failures, and faults to the exact
	// model variant (versioned artifact ID) that executed them, sorted by
	// variant string. After a bad publish, the demoted version's panics and
	// the rolled-back version's completions appear side by side here.
	PerModel []ModelStats `json:"per_model,omitempty"`

	// PerTenant attributes admissions, completions, failures, sheds, degraded
	// serves, rejections, and a p99 to each tenant, sorted by tenant ID.
	// This is the observable half of tenant isolation: one tenant's
	// poison storm shows up as that tenant's failures and rejections while
	// the others' rows stay clean.
	PerTenant []TenantStats `json:"per_tenant,omitempty"`

	// Registry surfaces publish/rollback/demotion counters when the
	// backend exposes a versioned model registry (nil otherwise).
	Registry *registry.Stats `json:"registry,omitempty"`

	// Runtime is the Go runtime's account of the whole process, read when
	// the snapshot is taken.
	Runtime RuntimeStats `json:"runtime"`
}

// RuntimeStats is what runtime/metrics says the process has spent since it
// started, beside the requests: the garbage collector's cycles, the heap
// allocations that drive them, CPU time by class, and the scheduler; and the
// body the int8 GEMM runs on, so a CPU cost per request is never read
// without the kernel that produced it. It is read at snapshot time only, so
// the request path pays nothing for it; two scrapes subtract into
// per-interval figures (the latency quantiles are since start).
type RuntimeStats struct {
	GCCycles         uint64 `json:"gc_cycles"`          // /gc/cycles/total:gc-cycles
	HeapAllocBytes   uint64 `json:"heap_alloc_bytes"`   // /gc/heap/allocs:bytes
	HeapAllocObjects uint64 `json:"heap_alloc_objects"` // /gc/heap/allocs:objects
	// CPU seconds by class, the runtime's estimates: the collector (mark
	// assists, background and idle mark workers, pauses), user Go code,
	// idle Ps, and the scavenger returning memory to the OS.
	CPUGCSeconds       float64 `json:"cpu_gc_seconds"`       // /cpu/classes/gc/total:cpu-seconds
	CPUUserSeconds     float64 `json:"cpu_user_seconds"`     // /cpu/classes/user:cpu-seconds
	CPUIdleSeconds     float64 `json:"cpu_idle_seconds"`     // /cpu/classes/idle:cpu-seconds
	CPUScavengeSeconds float64 `json:"cpu_scavenge_seconds"` // /cpu/classes/scavenge/total:cpu-seconds
	Goroutines         uint64  `json:"goroutines"`           // /sched/goroutines:goroutines
	// How long runnable goroutines waited for a P, microseconds:
	// /sched/latencies:seconds at p50 and p99.
	SchedLatencyP50US float64 `json:"sched_latency_p50_us"`
	SchedLatencyP99US float64 `json:"sched_latency_p99_us"`
	// GemmI8Body is the int8 generalist's GEMM body: "vnni", "avx2" or "go"
	// (kernels.GemmI8Body).
	GemmI8Body string `json:"gemm_i8_body"`
}

// runtimeSamples are the runtime/metrics names RuntimeStats reads, in the
// order readRuntime assigns them.
var runtimeSamples = [...]string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/scavenge/total:cpu-seconds",
	"/sched/goroutines:goroutines",
	"/sched/latencies:seconds",
}

// readRuntime reads RuntimeStats. A metric this Go version lacks reads as
// zero.
func readRuntime() RuntimeStats {
	var samples [len(runtimeSamples)]rtmetrics.Sample
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	rtmetrics.Read(samples[:])
	u := func(i int) uint64 {
		if samples[i].Value.Kind() != rtmetrics.KindUint64 {
			return 0
		}
		return samples[i].Value.Uint64()
	}
	f := func(i int) float64 {
		if samples[i].Value.Kind() != rtmetrics.KindFloat64 {
			return 0
		}
		return samples[i].Value.Float64()
	}
	rs := RuntimeStats{
		GCCycles: u(0), HeapAllocBytes: u(1), HeapAllocObjects: u(2),
		CPUGCSeconds: f(3), CPUUserSeconds: f(4), CPUIdleSeconds: f(5), CPUScavengeSeconds: f(6),
		Goroutines: u(7), GemmI8Body: kernels.GemmI8Body(),
	}
	if v := samples[8].Value; v.Kind() == rtmetrics.KindFloat64Histogram {
		h := v.Float64Histogram()
		rs.SchedLatencyP50US = 1e6 * histogramQuantile(h, 0.50)
		rs.SchedLatencyP99US = 1e6 * histogramQuantile(h, 0.99)
	}
	return rs
}

// histogramQuantile reads the q-quantile of a runtime/metrics histogram:
// the midpoint of the bucket holding the nearest-rank sample, or its finite
// edge when the other is infinite. Zero when the histogram is empty.
func histogramQuantile(h *rtmetrics.Float64Histogram, q float64) float64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := min(uint64(q*float64(n)), n-1)
	i := 0
	for ; rank >= h.Counts[i]; i++ {
		rank -= h.Counts[i]
	}
	lo, hi := h.Buckets[i], h.Buckets[i+1]
	switch {
	case math.IsInf(lo, -1):
		return hi
	case math.IsInf(hi, 1):
		return lo
	}
	return (lo + hi) / 2
}

// TenantStats is one tenant's attribution in a Snapshot.
type TenantStats struct {
	// Tenant is the tenant ID ("default" for unattributed requests,
	// "~overflow" aggregating tenants beyond the attribution cap).
	Tenant string `json:"tenant"`
	// Accepted = Completed + Failed + Shed once the tenant has nothing in
	// flight, as in the totals.
	Accepted  uint64 `json:"accepted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed,omitempty"`
	// Shed counts this tenant's requests shed while queued (cancelled or
	// deadline-expired); Degraded its requests served on the fallback
	// variant; Rejected its admissions refused by budget or queue share.
	Shed     uint64 `json:"shed,omitempty"`
	Degraded uint64 `json:"degraded,omitempty"`
	Rejected uint64 `json:"rejected,omitempty"`
	// LatencyP99US is the p99 of the tenant's completions since start,
	// microseconds.
	LatencyP99US float64 `json:"latency_p99_us,omitempty"`
}

// ModelStats is one variant's per-version attribution in a Snapshot.
type ModelStats struct {
	// Model is the variant string — a full versioned artifact ID for the
	// pipeline backend.
	Model     string `json:"model"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed,omitempty"`
	Panics    uint64 `json:"panics,omitempty"`
	Watchdogs uint64 `json:"watchdogs,omitempty"`
	// MeanLatencyUS is the mean admission-to-completion latency of this
	// variant's completed requests, microseconds.
	MeanLatencyUS float64 `json:"mean_latency_us,omitempty"`
}

func (m *metrics) snapshot(uptime time.Duration, queueDepth int) Snapshot {
	c := func(i counterIdx) uint64 { return m.c[i].Load() }
	snap := Snapshot{
		UptimeSeconds:     uptime.Seconds(),
		Accepted:          c(cAccepted),
		Completed:         c(cCompleted),
		Failed:            c(cFailed),
		RejectedFull:      c(cRejectedFull),
		RejectedClosed:    c(cRejectedClosed),
		RejectedRoute:     c(cRejectedRoute),
		RejectedShape:     c(cRejectedShape),
		RejectedBreaker:   c(cRejectedBreaker),
		RejectedDeadline:  c(cRejectedDeadline),
		ShedExpired:       c(cShedExpired),
		ShedCancelled:     c(cShedCancelled),
		PanicsRecovered:   c(cPanics),
		WatchdogTimeouts:  c(cWatchdogs),
		Quarantined:       c(cPanics) + c(cWatchdogs), // each failed exactly one request
		SLOBreaches:       c(cSLOBreaches),
		BreakerOpens:      c(cBreakerOpens),
		DegradedRouted:    c(cDegradedRouted),
		DegradedServed:    c(cDegradedServed),
		VariantEvictions:  c(cVariantEvictions),
		ResultCacheHits:   c(cCacheHits),
		ResultCacheMisses: c(cCacheMisses),
		Coalesced:         c(cCoalesced),
		CoalescedRetried:  c(cCoalescedRetried),
		QuarantineBlocked: c(cQuarantineBlocked),
		ArtifactSweeps:    c(cArtifactSweeps),
		RejectedBudget:    c(cRejectedBudget),
		RejectedShare:     c(cRejectedShare),
		QueueDepth:        queueDepth,
		Batches:           c(cBatches),
	}
	snap.BatchHist = []uint64{snap.Batches}

	m.perModel.Range(func(k, v any) bool {
		mr := v.(*modelRow)
		ms := ModelStats{
			Model:     k.(string),
			Completed: mr.c[cCompleted].Load(),
			Failed:    mr.c[cFailed].Load(),
			Panics:    mr.c[cPanics].Load(),
			Watchdogs: mr.c[cWatchdogs].Load(),
		}
		if ms.Completed > 0 {
			ms.MeanLatencyUS = float64(mr.latSumNS.Load()) / 1e3 / float64(ms.Completed)
		}
		snap.PerModel = append(snap.PerModel, ms)
		return true
	})
	sort.Slice(snap.PerModel, func(i, j int) bool { return snap.PerModel[i].Model < snap.PerModel[j].Model })

	m.perTenant.Range(func(k, v any) bool {
		tr := v.(*tenantRow)
		lat := tr.lat.load()
		snap.PerTenant = append(snap.PerTenant, TenantStats{
			Tenant:       k.(string),
			Accepted:     tr.c[cAccepted].Load(),
			Completed:    tr.c[cCompleted].Load(),
			Failed:       tr.c[cFailed].Load(),
			Shed:         tr.c[cShedExpired].Load() + tr.c[cShedCancelled].Load(),
			Degraded:     tr.c[cDegradedServed].Load(),
			Rejected:     tr.c[cRejectedBudget].Load() + tr.c[cRejectedShare].Load() + tr.c[cRejectedFull].Load(),
			LatencyP99US: histQuantile(lat[:], 0.99),
		})
		return true
	})
	sort.Slice(snap.PerTenant, func(i, j int) bool { return snap.PerTenant[i].Tenant < snap.PerTenant[j].Tenant })

	if uptime > 0 {
		snap.ThroughputRPS = float64(snap.Completed) / uptime.Seconds()
	}
	lat := m.lat.load()
	snap.LatencyP50US = histQuantile(lat[:], 0.50)
	snap.LatencyP95US = histQuantile(lat[:], 0.95)
	snap.LatencyP99US = histQuantile(lat[:], 0.99)
	n := len(lat)
	for n > 0 && lat[n-1] == 0 {
		n--
	}
	snap.LatencyBuckets = append([]uint64(nil), lat[:n]...)
	if total := snap.ResultCacheHits + snap.ResultCacheMisses; total > 0 {
		snap.ResultCacheHitRate = float64(snap.ResultCacheHits) / float64(total)
	}
	return snap
}
