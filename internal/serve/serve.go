// Package serve is iTask's online serving layer: it accepts concurrent
// detection requests, routes them through the situational scheduler's model
// selection, queues them in one tenant-fair queue, and executes them one at
// a time on a bounded worker pool.
//
// The design is queue → worker, wrapped in a fault-tolerance layer:
//
//   - Admission: a bounded queue with backpressure. Requests beyond
//     QueueCap are rejected immediately with ErrQueueFull (reject-with-
//     reason rather than unbounded growth), requests whose deadline has
//     already passed are refused, malformed input is refused with
//     ErrBadShape before it can reach a kernel, and a draining server
//     refuses everything with ErrShuttingDown.
//   - Fast path: with CacheBytes > 0, admission first consults a
//     content-addressed result cache keyed by (routed artifact version,
//     task, image digest) — identical frames from consecutive requests or
//     concurrent clients are answered without touching the queue or a
//     kernel, in zero allocations. With Coalesce, concurrent duplicates
//     that miss the cache collapse into one in-flight execution
//     (singleflight): the leader rides the normal path, followers wait for
//     its outcome, and a failed leader never fails a follower without
//     re-execution (see flight.go). Because the cache key pins the full
//     versioned artifact ID, a model publish or rollback invalidates stale
//     entries by construction.
//   - Queueing: one weighted-fair queue holds every admitted request, each
//     carrying the variant admission routed it to. Workers pull one request
//     at a time, tenants interleaved by deficit round robin. An idle server
//     runs a lone request at once; a busy one hands each freed worker the
//     next request in fair order. A request always executes alone, so its
//     answer is the one its frame gets by itself: batching on the CPU buys
//     nothing per image, and the weight-stationary amortization it buys on
//     the accelerator is the device model's concern (hwsim.SimulateAccelBatch).
//   - Execution: Workers goroutines drain the queue, each making the
//     backend call itself. Requests whose deadline passed
//     while queued are shed at execution time, and every backend call runs
//     under recover (a kernel panic becomes a *PanicError, never a crash)
//     and under the worker's watchdog timer, re-armed per execution. A call
//     still running after Watchdog is abandoned: the timer fails the
//     request with ErrWatchdog and starts a replacement worker in the slot,
//     and the hung worker discards its result and exits once the call
//     returns. A failed execution fails exactly the request that ran: it is
//     its own poison.
//   - Degradation: each (variant, task) pair has a circuit breaker.
//     Consecutive failures (including latency-SLO breaches) trip it open;
//     open pairs route new requests to the backend's fallback variant —
//     the paper's quantized generalist configuration — marked in
//     Result.Degraded, and heal through exponential-backoff half-open
//     probes.
//   - Shutdown: Shutdown stops admissions, lets the workers drain the
//     queue, and waits for them to exit.
//
// All latency accounting is wall-clock from admission, and the server keeps
// a metrics snapshot (p50/p95/p99 latency, throughput, queue depth,
// shed/reject/fault counters, per-(variant, task) breaker states,
// model-cache hit rate) for the /metricsz endpoint of cmd/itask-serve.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"itask/internal/fair"
	"itask/internal/rcache"
	"itask/internal/tensor"
)

// Sentinel errors returned by the admission and execution paths.
var (
	// ErrQueueFull reports that the admission queue is at QueueCap; the
	// caller should back off (HTTP 429).
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrShuttingDown reports that the server is draining and refuses new
	// work (HTTP 503).
	ErrShuttingDown = errors.New("serve: shutting down")
	// ErrDeadlineExceeded reports that the request's deadline expired
	// before execution — either refused at admission or shed while queued
	// (HTTP 504).
	ErrDeadlineExceeded = errors.New("serve: deadline exceeded before execution")
	// ErrBadShape reports that the request's image failed the backend's
	// shape validation at admission (HTTP 400). Input is rejected here so
	// it can never reach a panicking kernel.
	ErrBadShape = errors.New("serve: bad image shape")
	// ErrBackendPanic is the sentinel under every *PanicError: the backend
	// panicked while executing the request and the server recovered (HTTP
	// 500).
	ErrBackendPanic = errors.New("serve: backend panicked")
	// ErrWatchdog reports that a backend execution exceeded the Watchdog
	// deadline and was abandoned (HTTP 504).
	ErrWatchdog = errors.New("serve: execution watchdog expired")
	// ErrBreakerOpen is the sentinel under every *BreakerOpenError: the
	// routed (variant, task) pair's circuit breaker is open and no healthy
	// fallback exists (HTTP 503 with Retry-After).
	ErrBreakerOpen = errors.New("serve: circuit breaker open")
	// ErrQuarantined reports that the request's exact content was recently
	// proven poison — it panicked or hung its kernel — and is
	// refused from the negative cache without re-execution until the entry's
	// short TTL lapses (HTTP 422). Quarantine verdicts are tenant-scoped:
	// only the tenant whose traffic earned the verdict is refused.
	ErrQuarantined = errors.New("serve: content quarantined as poison")
	// ErrTenantBudget is the sentinel under every *TenantBudgetError: the
	// request's tenant has exhausted its token-bucket admission budget
	// (HTTP 429 with Retry-After).
	ErrTenantBudget = errors.New("serve: tenant admission budget exhausted")
)

// TenantBudgetError reports a request rejected because its tenant spent its
// admission budget (Config.TenantRate/TenantBurst). It unwraps to
// ErrTenantBudget.
type TenantBudgetError struct {
	// Tenant is the over-budget tenant.
	Tenant string
	// RetryAfter estimates when the tenant's bucket next holds a token.
	RetryAfter time.Duration
}

func (e *TenantBudgetError) Error() string {
	return fmt.Sprintf("serve: tenant %q over admission budget (retry after %v)", e.Tenant, e.RetryAfter)
}

func (e *TenantBudgetError) Unwrap() error { return ErrTenantBudget }

// Config sizes the serving layer.
type Config struct {
	// Workers is the number of inference workers draining the queue, each
	// executing one request at a time.
	Workers int
	// QueueCap bounds requests admitted but not yet taken by a worker;
	// beyond it submissions fail fast with ErrQueueFull.
	QueueCap int

	// Watchdog bounds a single backend execution: a request still running
	// after it is abandoned and fails with ErrWatchdog, and a replacement
	// worker takes the hung worker's slot (the hung one exits when its call
	// returns). Zero disables the watchdog.
	Watchdog time.Duration
	// BreakerThreshold is how many consecutive failed executions trip a
	// (variant, task) pair's circuit breaker open. Zero disables the
	// breakers.
	BreakerThreshold int
	// BreakerBackoff is how long a freshly opened breaker refuses the pair
	// before admitting a half-open probe; each failed probe doubles it up
	// to BreakerMaxBackoff. Required when BreakerThreshold > 0.
	BreakerBackoff time.Duration
	// BreakerMaxBackoff caps the exponential backoff (defaults to
	// BreakerBackoff when smaller).
	BreakerMaxBackoff time.Duration
	// LatencySLO, when non-zero, marks successful executions slower than
	// it as breaker failures, so a pair that stops meeting its latency
	// objective degrades to the fallback variant like a failing one.
	LatencySLO time.Duration

	// CacheBytes, when positive, enables the content-addressed detection
	// result cache with this byte budget. Identical (artifact version,
	// task, image) requests are then served from memory without touching
	// the queue or a kernel. Zero disables the cache.
	CacheBytes int64
	// CacheTTL bounds result-cache entry lifetime (zero: entries live
	// until evicted by the byte budget). A TTL also bounds how old a
	// result a rollback can resurrect for the restored version.
	CacheTTL time.Duration
	// NegativeTTL, when positive (and CacheBytes > 0), enables the negative
	// cache: content quarantined as poison — it panicked or hung its kernel
	// — is refused with ErrQuarantined for this long instead
	// of re-executing (and re-panicking) on every arrival. Keep it short:
	// it also delays discovering that a rolled-back kernel fixed the
	// content.
	NegativeTTL time.Duration
	// Coalesce enables singleflight duplicate suppression: concurrent
	// requests with the same (artifact version, task, image digest) share
	// one backend execution instead of each riding the queue. Failure
	// semantics are per-request — see flight.go.
	Coalesce bool

	// HotThreshold, when positive, enables the result cache's hot replica
	// tier: a digest read this many times within a decay window is promoted
	// to a lock-free replicated table, so a viral frame's readers stop
	// serializing on one cache-shard mutex. See rcache's hot tier for the
	// mechanism. The tier is part of the result cache: with CacheBytes zero
	// there is none.
	HotThreshold int
	// HotBytes bounds the replica tier's memory, on top of CacheBytes
	// (replicas are copies). Zero picks CacheBytes/8.
	HotBytes int64

	// TenantWeights maps tenant ID -> DRR weight for the weighted-fair
	// dequeue and the weighted queue-share guard. Unlisted tenants get
	// weight 1 (fair.DefaultWeight); requests that carry no tenant are the
	// DefaultTenant. Nil serves everyone as one tenant, which degenerates
	// to the pre-tenant FIFO behaviour.
	TenantWeights map[string]int
	// TenantRate, when positive, grants each tenant this many admitted
	// executions per second (token bucket, lazily refilled). Over-budget
	// requests fail fast with a *TenantBudgetError. Cache hits are free:
	// the budget paces work, and a hit executes nothing. Zero disables
	// budgets.
	TenantRate float64
	// TenantBurst is each tenant's bucket size — the burst credits an idle
	// tenant accumulates. Zero defaults to max(1, TenantRate): one second
	// of headroom.
	TenantBurst float64
}

// DefaultConfig returns the configuration itask-serve serves, sized for the
// laptop-scale models: one worker per core (tensor.Workers: every kernel runs
// on its caller, so a shard's compute width is its worker count), a
// 256-request queue, the fault-tolerance layer on (10s watchdog, and breakers
// that open after 5 consecutive failures for 500ms, backing off to 30s), and
// the zero-contention path on (a 32 MiB result cache with 1-minute entries,
// coalescing, and a 4 MiB hot tier promoting digests read 64 times within a
// decay window).
func DefaultConfig() Config {
	return Config{
		Workers:           tensor.Workers(),
		QueueCap:          256,
		Watchdog:          10 * time.Second,
		BreakerThreshold:  5,
		BreakerBackoff:    500 * time.Millisecond,
		BreakerMaxBackoff: 30 * time.Second,
		CacheBytes:        32 << 20,
		CacheTTL:          time.Minute,
		Coalesce:          true,
		HotThreshold:      64,
		HotBytes:          4 << 20,
	}
}

// Validate rejects configurations that cannot serve: a server with zero
// workers would admit requests and never run them, one with no queue would
// refuse every request.
func (c Config) Validate() error {
	switch {
	case c.Workers <= 0:
		return fmt.Errorf("serve: Workers must be positive, got %d", c.Workers)
	case c.QueueCap <= 0:
		return fmt.Errorf("serve: QueueCap must be positive, got %d", c.QueueCap)
	case c.Watchdog < 0:
		return fmt.Errorf("serve: negative Watchdog %v", c.Watchdog)
	case c.BreakerThreshold < 0:
		return fmt.Errorf("serve: negative BreakerThreshold %d", c.BreakerThreshold)
	case c.BreakerThreshold > 0 && c.BreakerBackoff <= 0:
		return fmt.Errorf("serve: BreakerThreshold %d needs a positive BreakerBackoff, got %v",
			c.BreakerThreshold, c.BreakerBackoff)
	case c.BreakerBackoff < 0:
		return fmt.Errorf("serve: negative BreakerBackoff %v", c.BreakerBackoff)
	case c.BreakerMaxBackoff < 0:
		return fmt.Errorf("serve: negative BreakerMaxBackoff %v", c.BreakerMaxBackoff)
	case c.LatencySLO < 0:
		return fmt.Errorf("serve: negative LatencySLO %v", c.LatencySLO)
	case c.CacheBytes < 0:
		return fmt.Errorf("serve: negative CacheBytes %d", c.CacheBytes)
	case c.CacheTTL < 0:
		return fmt.Errorf("serve: negative CacheTTL %v", c.CacheTTL)
	case c.NegativeTTL < 0:
		return fmt.Errorf("serve: negative NegativeTTL %v", c.NegativeTTL)
	case c.HotThreshold < 0:
		return fmt.Errorf("serve: negative HotThreshold %d", c.HotThreshold)
	case c.HotBytes < 0:
		return fmt.Errorf("serve: negative HotBytes %d", c.HotBytes)
	case c.TenantRate < 0:
		return fmt.Errorf("serve: negative TenantRate %v", c.TenantRate)
	case c.TenantBurst < 0:
		return fmt.Errorf("serve: negative TenantBurst %v", c.TenantBurst)
	}
	for tenant, w := range c.TenantWeights {
		if w <= 0 {
			return fmt.Errorf("serve: non-positive weight %d for tenant %q", w, tenant)
		}
	}
	return nil
}

// Server is the serving layer. Create with New; all methods are safe for
// concurrent use.
type Server struct {
	cfg     Config
	backend Backend
	start   time.Time

	st *state
	h  *health

	// abandoned counts watchdog-abandoned executions still running, per
	// variant. invoke fails fast with ErrWatchdog once a variant reaches
	// maxAbandonedPerVariant, so a permanently hung variant cannot strand
	// worker goroutines without bound.
	abMu      sync.Mutex
	abandoned map[string]int

	// budget is the per-tenant token-bucket admission limiter (nil when
	// Config.TenantRate is zero).
	budget *fair.Budget
	m      *metrics

	// Zero-contention request path (nil members when disabled).
	cache   *rcache.Cache // content-addressed result cache
	flights *flightGroup  // singleflight duplicate suppression
	// validator/epocher/ctxBackend are the backend's optional interfaces,
	// resolved once at construction so the hot path never repeats the
	// assertion.
	validator  ImageValidator
	epocher    RouteEpocher
	ctxBackend ContextBackend
	// routes memoizes task -> routed variant per backend route epoch
	// (copy-on-write map: lock-free, allocation-free reads). Entries from
	// a previous epoch are ignored, so a publish or rollback atomically
	// invalidates every memoized route.
	routes atomic.Pointer[map[string]routeEntry]
}

// routeEntry is one memoized routing decision, valid only while the
// backend's route epoch still matches.
type routeEntry struct {
	epoch   uint64
	variant string
}

// New validates the configuration and starts the worker pool. The returned
// server accepts requests immediately.
func New(b Backend, cfg Config) (*Server, error) {
	if b == nil {
		return nil, fmt.Errorf("serve: nil backend")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		backend:   b,
		start:     time.Now(),
		st:        newState(cfg.TenantWeights),
		h:         newHealth(cfg.BreakerThreshold, cfg.BreakerBackoff, cfg.BreakerMaxBackoff),
		abandoned: map[string]int{},
		m:         newMetrics(),
	}
	if cfg.TenantRate > 0 {
		s.budget = fair.NewBudget(cfg.TenantRate, cfg.TenantBurst)
	}
	s.validator, _ = b.(ImageValidator)
	s.epocher, _ = b.(RouteEpocher)
	s.ctxBackend, _ = b.(ContextBackend)
	if cfg.CacheBytes > 0 {
		rc := rcache.Config{
			MaxBytes: cfg.CacheBytes, TTL: cfg.CacheTTL, NegTTL: cfg.NegativeTTL,
			HotThreshold: cfg.HotThreshold, HotMaxBytes: cfg.HotBytes,
		}
		if ps, ok := b.(PayloadSizer); ok {
			rc.SizeOf = ps.PayloadBytes
		}
		s.cache = rcache.New(rc)
		if rn, ok := b.(RetirementNotifier); ok && cfg.HotThreshold > 0 {
			// Retire a superseded/demoted version's hot-tier replicas before
			// the backend's new routing view can serve, so a promoted
			// replica never outlives its version. Shard entries are left to
			// their natural versioned-key invalidation — a rollback may
			// still resurrect the restored version's TTL-valid entries.
			cache := s.cache
			rn.OnRetire(func(artifact string) { cache.RetireReplicas(artifact) })
		}
	}
	if cfg.Coalesce {
		s.flights = newFlightGroup()
	}
	empty := map[string]routeEntry{}
	s.routes.Store(&empty)
	s.st.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.newWorker().run()
	}
	return s, nil
}

// Submit admits one request and returns the channel its outcome will be
// delivered on (buffered: the result is never lost if the caller walks
// away). Admission fails fast with ErrQueueFull, ErrShuttingDown,
// ErrDeadlineExceeded, ErrBadShape, a *BreakerOpenError, or the backend's
// routing error. A result-cache hit is delivered on the returned channel
// immediately.
func (s *Server) Submit(req Request) (<-chan Outcome, error) {
	a, err := s.preadmit(&req)
	if err != nil {
		return nil, err
	}
	if res, ok := s.cacheGet(&a); ok {
		ch := make(chan Outcome, 1)
		ch <- Outcome{Res: res}
		return ch, nil
	}
	p, err := s.submitSlow(req, a)
	if err != nil {
		return nil, err
	}
	return p.done, nil
}

// admission carries a request's precomputed fast-path state (timestamps,
// normalized tenant, and — when the cache or coalescing is on — the
// content-addressed key) from preadmit to the cache probe and slow path.
type admission struct {
	now      time.Time
	deadline time.Time
	tenant   string
	key      rcache.Key
	haveKey  bool
}

// preadmit runs the per-request admission work shared by every path:
// validation, deadline expiry, and — when the fast path is enabled — routing
// and content-key derivation. A request keyed by its Digest is validated
// once decoded, and its key is the Digest. Allocation-free.
func (s *Server) preadmit(req *Request) (admission, error) {
	if req.Tenant == "" {
		req.Tenant = DefaultTenant
	}
	a := admission{now: time.Now(), tenant: req.Tenant}
	if req.Image != nil || req.Decode == nil {
		if err := s.validate(req.Image); err != nil {
			return a, err
		}
	}
	a.deadline = req.Deadline
	if !a.deadline.IsZero() && !a.now.Before(a.deadline) {
		// Refused before it was accepted, so a rejection, not a shed: the
		// books count only admitted requests.
		s.m.inc(cRejectedDeadline)
		return a, ErrDeadlineExceeded
	}
	if s.cache != nil || s.flights != nil {
		d := req.Digest
		if req.Image != nil {
			d = rcache.DigestImage(req.Image)
		}
		variant, err := s.route(req.Task)
		if err != nil {
			s.m.inc(cRejectedRoute)
			return a, err
		}
		a.key = rcache.Key{Artifact: variant, Task: req.Task, Digest: d}
		a.haveKey = true
		if req.Hot && s.cache != nil {
			// Upstream (the gateway's fleet-wide detector) already proved
			// the digest viral: pre-heat the hot tier instead of waiting for
			// the local detector, which only sees this shard's slice of the
			// replicated traffic.
			s.cache.MarkHot(a.key, a.now)
		}
		if s.cache != nil && s.cache.Negative(a.key, a.tenant, a.now) {
			// The exact content was recently proven poison on this version
			// by this tenant's own traffic: fail fast instead of re-running
			// a kernel known to panic on it. The verdict is tenant-scoped,
			// so one tenant's poison storm cannot blind another tenant to
			// content that would serve fine for them.
			s.m.inc(cQuarantineBlocked)
			return a, fmt.Errorf("%w (digest %x on %s)", ErrQuarantined, a.key.Digest, a.key.Artifact)
		}
	}
	return a, nil
}

// validate refuses an image the backend's ImageValidator refuses, with
// ErrBadShape.
func (s *Server) validate(img *tensor.Tensor) error {
	if img == nil {
		s.m.inc(cRejectedShape)
		return fmt.Errorf("serve: nil image: %w", ErrBadShape)
	}
	if s.validator == nil {
		return nil
	}
	if err := s.validator.ValidateImage(img); err != nil {
		s.m.inc(cRejectedShape)
		if !errors.Is(err, ErrBadShape) {
			err = fmt.Errorf("%w: %v", ErrBadShape, err)
		}
		return err
	}
	return nil
}

// decode gives a request keyed by its digest its image (Request.Decode).
func (s *Server) decode(req *Request) error {
	img, err := req.Decode()
	if err != nil {
		s.m.inc(cRejectedShape)
		return err
	}
	if err := s.validate(img); err != nil {
		return err
	}
	req.Image = img
	return nil
}

// route resolves task -> variant, memoizing per backend route epoch when
// the backend exposes one. The memo is a copy-on-write map: reads are
// lock-free and allocation-free, and any publish/rollback (which bumps the
// epoch) atomically invalidates every memoized decision.
func (s *Server) route(task string) (string, error) {
	if s.epocher == nil {
		return s.backend.Route(task)
	}
	epoch := s.epocher.RouteEpoch()
	m := s.routes.Load()
	if e, ok := (*m)[task]; ok && e.epoch == epoch {
		return e.variant, nil
	}
	variant, err := s.backend.Route(task)
	if err != nil {
		return "", err
	}
	next := make(map[string]routeEntry, len(*m)+1)
	for k, v := range *m {
		if v.epoch == epoch {
			next[k] = v
		}
	}
	next[task] = routeEntry{epoch: epoch, variant: variant}
	s.routes.CompareAndSwap(m, &next) // a lost race just drops the memo
	return variant, nil
}

// cacheGet probes the result cache. On hit the request is fully served:
// no queue, no kernel, no allocation. Per-model attribution is
// untouched — PerModel counts executed work, and a hit executes nothing.
func (s *Server) cacheGet(a *admission) (Result, bool) {
	if s.cache == nil || !a.haveKey {
		return Result{}, false
	}
	payload, model, ok := s.cache.Get(a.key, a.now)
	if !ok {
		s.m.inc(cCacheMisses)
		return Result{}, false
	}
	return s.hit(a, payload, model), true
}

// hit books and builds the answer to a request served from the result cache
// or its hot tier: admitted and completed in the same instant.
func (s *Server) hit(a *admission, payload any, model string) Result {
	total := time.Since(a.now)
	row := s.m.tenant(a.tenant)
	s.m.count(cAccepted, row)
	s.m.settle(cCacheHits, row, "", total, false)
	return Result{Payload: payload, Model: model, Tenant: a.tenant, BatchSize: 1, Cached: true, Total: total}
}

// submitSlow is the post-cache admission path: tenant budget consult,
// singleflight join (leader or follower), then queue admission for leaders
// and un-coalesced requests.
func (s *Server) submitSlow(req Request, a admission) (*pending, error) {
	// The budget paces executed (or coalesced) work, so it is consulted
	// after the cache probe — hits are free reads — but before the flight
	// join, so an over-budget tenant cannot keep riding coalesced results
	// for content it hammers.
	if s.budget != nil && !s.budget.Allow(a.tenant, a.now) {
		s.m.count(cRejectedBudget, s.m.tenant(a.tenant))
		return nil, &TenantBudgetError{Tenant: a.tenant, RetryAfter: s.budget.RetryAfter(a.tenant, a.now)}
	}
	if req.Image == nil {
		if err := s.decode(&req); err != nil {
			return nil, err
		}
	}
	p := &pending{
		image:    req.Image,
		task:     req.Task,
		tenant:   a.tenant,
		deadline: a.deadline,
		enq:      a.now,
		key:      a.key,
		haveKey:  a.haveKey,
		done:     make(chan Outcome, 1),
	}
	if s.flights != nil && a.haveKey {
		if s.cache != nil {
			// Promoted digests never enter a flight: the hot tier replicates
			// exactly the keys whose concurrent duplicates coalescing exists
			// for, and between the admission-time cache probe and here a
			// concurrent fill may have promoted ours. A flight join would
			// park this request behind a leader (or a stripe mutex) for a
			// result already readable lock-free.
			if payload, model, ok := s.cache.Replicated(a.key, a.now); ok {
				p.done <- Outcome{Res: s.hit(&a, payload, model)}
				return p, nil
			}
		}
		f, isLeader := s.flights.join(a.key, p, s.m)
		if !isLeader {
			// Follower, accepted by the join: the leader's terminal delivery
			// resolves the flight and either shares its result or re-admits
			// us.
			return p, nil
		}
		p.flight = f
	}
	if err := s.admitToQueue(p); err != nil {
		// A leader that fails admission still owes its followers a
		// resolution; they re-execute rather than inherit the error.
		if p.flight != nil {
			s.finishFlight(p, Outcome{Err: err})
		}
		return nil, err
	}
	s.m.count(cAccepted, p.row)
	return p, nil
}

// admitToQueue routes p to a variant and enqueues it: routing (unless the
// fast path already routed), breaker consultation (with fallback rerouting
// when the preferred (variant, task) breaker is open), and enqueue. Used by
// first admission and by follower re-execution.
func (s *Server) admitToQueue(p *pending) error {
	now := time.Now()
	variant := p.key.Artifact
	if !p.haveKey {
		v, err := s.backend.Route(p.task)
		if err != nil {
			s.m.inc(cRejectedRoute)
			return err
		}
		variant = v
	}

	// Consult the (variant, task) breaker; an open breaker degrades the
	// request to the fallback variant (the quantized generalist) when the
	// backend offers one and its breaker is not itself open.
	p.degraded = ""
	p.probeKey = "" // non-empty when this request claims a half-open probe slot
	key := laneKey(variant, p.task)
	switch s.h.admit(key, now) {
	case admitProbe:
		p.probeKey = key
	case admitDeny:
		fv, ok := s.fallbackFor(p.task, variant, now, &p.probeKey)
		if !ok {
			s.m.inc(cRejectedBreaker)
			return &BreakerOpenError{
				Variant:    variant,
				Task:       p.task,
				RetryAfter: s.h.retryAfter(key, now),
			}
		}
		variant = fv
		p.degraded = DegradedBreakerOpen
		s.m.inc(cDegradedRouted)
	}

	// Past every refusal that is not the tenant's own doing (route, breaker),
	// so only now does a new tenant take a row in the bounded table; a
	// re-admitted follower brings the one its join resolved.
	if p.row == nil {
		p.row = s.m.tenant(p.tenant)
	}
	p.variant = variant
	if err := s.enqueue(p); err != nil {
		if p.probeKey != "" {
			s.h.releaseProbe(p.probeKey)
			p.probeKey = ""
		}
		return err
	}
	return nil
}

// resubmit re-admits a follower whose leader failed to produce a shareable
// result. The follower runs the full fresh path (route, breaker, enqueue);
// it never joins another flight, so every request executes at most twice.
// An admission rejection becomes the follower's terminal outcome — it was
// already counted accepted, so it terminates as failed to keep the books
// balanced.
func (s *Server) resubmit(p *pending) {
	if err := s.admitToQueue(p); err != nil {
		s.m.settle(cFailed, p.row, "", 0, false)
		p.done <- Outcome{Err: err}
	}
}

// fallbackFor resolves a healthy fallback variant for a task whose preferred
// variant's breaker is open. Reports ok=false when the backend has no
// fallback, the fallback is the broken variant itself, or the fallback's
// breaker is also open.
func (s *Server) fallbackFor(taskName, brokenVariant string, now time.Time, probeKey *string) (string, bool) {
	fr, ok := s.backend.(FallbackRouter)
	if !ok {
		return "", false
	}
	fv, err := fr.RouteFallback(taskName)
	if err != nil || fv == brokenVariant {
		return "", false
	}
	switch s.h.admit(laneKey(fv, taskName), now) {
	case admitDeny:
		return "", false
	case admitProbe:
		*probeKey = laneKey(fv, taskName)
	}
	return fv, true
}

// Detect is the synchronous entry point: it submits the request and waits
// for its outcome or for ctx. A ctx deadline doubles as the request
// deadline when the request carries none. When ctx is cancelled before a
// worker takes the request, it is marked cancelled and shed at execution
// time instead of being run for nobody.
//
// The image — req.Image, or the tensor req.Decode returned — belongs to the
// caller again exactly when Detect returns a nil error: every read a server
// goroutine made of it has returned by then, and none follows, whichever
// path answered — an execution of this request, the result cache or its hot
// tier, a coalesced leader's execution, or this request's re-execution after
// its leader failed. The caller may then recycle the pixels. On any error —
// a watchdog abandonment, a cancelled ctx, a shed, a rejection — an
// execution may still be reading them, so they must be left to the garbage
// collector.
func (s *Server) Detect(ctx context.Context, req Request) (Result, error) {
	if req.Deadline.IsZero() {
		if d, ok := ctx.Deadline(); ok {
			req.Deadline = d
		}
	}
	a, err := s.preadmit(&req)
	if err != nil {
		return Result{}, err
	}
	if res, ok := s.cacheGet(&a); ok {
		return res, nil
	}
	p, err := s.submitSlow(req, a)
	if err != nil {
		return Result{}, err
	}
	select {
	case out := <-p.done:
		return out.Res, out.Err
	case <-ctx.Done():
		p.cancelled.Store(true)
		return Result{}, ctx.Err()
	}
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	return s.st.closed
}

// Shutdown stops admissions, lets the workers drain the queue, and waits
// for the workers to exit (or for ctx, whichever first; on ctx expiry the
// drain keeps running in the background). Calling Shutdown on a draining server returns
// ErrShuttingDown.
func (s *Server) Shutdown(ctx context.Context) error {
	s.st.mu.Lock()
	if s.st.closed {
		s.st.mu.Unlock()
		return ErrShuttingDown
	}
	s.st.closed = true
	s.st.cond.Broadcast()
	s.st.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.st.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Breakers lists every (variant, task) circuit-breaker state — all a health
// probe needs, without the walk over every row that Snapshot makes.
func (s *Server) Breakers() []LaneBreaker { return s.h.snapshot(time.Now()) }

// Snapshot returns the current metrics. See the Snapshot type for fields.
func (s *Server) Snapshot() Snapshot {
	s.st.mu.Lock()
	depth := s.st.q.Len()
	s.st.mu.Unlock()
	snap := s.m.snapshot(time.Since(s.start), depth)
	snap.Breakers = s.Breakers()
	if cs, ok := s.backend.(CacheStatser); ok {
		stats := cs.CacheStats()
		snap.Cache = &stats
		if total := stats.Hits + stats.Misses; total > 0 {
			snap.CacheHitRate = float64(stats.Hits) / float64(total)
		}
	}
	if rs, ok := s.backend.(RegistryStatser); ok {
		stats := rs.RegistryStats()
		snap.Registry = &stats
	}
	if s.cache != nil {
		stats := s.cache.Stats()
		snap.ResultCache = &stats
		if stats.Hits > 0 {
			snap.ReplicatedHitRate = float64(stats.HotHits) / float64(stats.Hits)
		}
	}
	snap.Runtime = readRuntime()
	return snap
}
