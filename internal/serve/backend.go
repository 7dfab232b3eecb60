package serve

import (
	"context"
	"time"

	"itask/internal/registry"
	"itask/internal/sched"
	"itask/internal/tensor"
)

// Backend executes routed requests. The root itask package implements it
// over Pipeline + sched.Scheduler; tests use in-memory fakes. A Backend must
// be safe for concurrent use: every worker calls DetectBatch concurrently,
// and Route runs on every admission.
type Backend interface {
	// Route resolves a task to the name of the model variant that would
	// serve it right now, without loading the model or perturbing the
	// cache.
	Route(task string) (variant string, err error)

	// DetectBatch runs images of one task on the named variant (the one a
	// prior Route or RouteFallback returned) and returns one
	// backend-defined payload per image (e.g. []itask.Detection) plus the
	// name of the model that served them. len(payloads) must equal
	// len(imgs) on success. The server calls it with one image per
	// request — the pipeline's inference entry is a batch, and a frame is a
	// batch of one — under recover: a panicking backend fails the request,
	// never the server. The imgs slice is the calling worker's own array,
	// reused for its next request: a backend must not keep it past the call.
	DetectBatch(variant, task string, imgs []*tensor.Tensor) (payloads []any, model string, err error)
}

// ContextBackend is optionally implemented by backends whose execution can
// honor cancellation. When implemented, the server prefers
// DetectBatchContext over DetectBatch and cancels ctx when the watchdog
// abandons the execution, so a hung-but-cooperative backend stops working
// on the dead request instead of leaking a goroutine (a plain DetectBatch can
// only be abandoned, never stopped). Same contract as DetectBatch
// otherwise; returning ctx.Err() after cancellation is the expected shape.
type ContextBackend interface {
	DetectBatchContext(ctx context.Context, variant, task string, imgs []*tensor.Tensor) (payloads []any, model string, err error)
}

// FallbackRouter is optionally implemented by backends that can serve a
// task on a degraded configuration (the paper's quantized generalist) when
// the preferred variant's circuit breaker is open. RouteFallback must not
// load the model; an error means no fallback exists for the task.
type FallbackRouter interface {
	RouteFallback(task string) (variant string, err error)
}

// VariantEvicter is optionally implemented by backends that cache model
// weights. The server calls EvictVariant after a variant panics or blows
// the watchdog, so possibly-corrupt resident weights are dropped and the
// next selection reloads them from storage instead of trusting the cached
// copy as healthy.
type VariantEvicter interface {
	EvictVariant(variant string)
}

// ImageValidator is optionally implemented by backends that can check an
// input tensor's shape without running it. The server calls ValidateImage
// at admission so malformed input fails fast with ErrBadShape instead of
// reaching a panicking kernel.
type ImageValidator interface {
	ValidateImage(img *tensor.Tensor) error
}

// CacheStatser is optionally implemented by backends that sit on a model
// cache; the server surfaces the stats in its metrics snapshot.
type CacheStatser interface {
	CacheStats() sched.CacheStats
}

// VariantHealthSink is optionally implemented by backends that maintain a
// versioned model registry. The server reports its health verdicts on a
// variant — a recovered panic, a watchdog abandonment, or a circuit breaker
// tripping open — so the registry can demote the version and roll the
// artifact back to its last-known-good version. Must be fast and
// non-blocking; it runs on the execution path.
type VariantHealthSink interface {
	VariantUnhealthy(variant, task, reason string)
}

// Health-verdict reasons passed to VariantHealthSink.VariantUnhealthy.
const (
	UnhealthyPanic    = "panic"
	UnhealthyWatchdog = "watchdog"
	UnhealthyBreaker  = "breaker-open"
)

// RegistryStatser is optionally implemented by backends with a versioned
// model registry; the server surfaces publish/rollback counters in its
// metrics snapshot.
type RegistryStatser interface {
	RegistryStats() registry.Stats
}

// RetirementNotifier is optionally implemented by backends with a versioned
// model registry. OnRetire registers a hook the backend must call with the
// full versioned artifact ID of every version that stops being active —
// superseded by a publish, or quarantined by a demotion/rollback — *before*
// the new routing view becomes observable. The server uses it to retire the
// version's result-cache state (including lock-free hot-tier replicas)
// atomically with the version itself, so a promoted entry can never serve a
// retired version. Hooks run under the registry's write lock: they must be
// fast and must not call back into the backend.
type RetirementNotifier interface {
	OnRetire(fn func(artifact string))
}

// RouteEpocher is optionally implemented by backends whose routing table
// has a version. RouteEpoch must return a value that changes whenever any
// Route result could change (for the pipeline backend, the registry
// snapshot sequence — bumped by every publish, demotion, and rollback).
// The server memoizes Route per epoch, so RouteEpoch must be cheap and
// lock-free: it runs on every admission.
type RouteEpocher interface {
	RouteEpoch() uint64
}

// PayloadSizer is optionally implemented by backends that can estimate the
// resident size of one image's DetectBatch payload. The result cache charges entries
// against its byte budget with it; without it a conservative default is
// used.
type PayloadSizer interface {
	PayloadBytes(payload any) int64
}

// DefaultTenant is the tenant identity assigned to requests that carry
// none. Single-tenant deployments never need to set Request.Tenant: every
// request lands in the default tenant's subqueue and the weighted-fair
// machinery degenerates to plain FIFO.
const DefaultTenant = "default"

// Request is one detection call entering the serving layer.
type Request struct {
	// Task names the mission; it must be defined on the backend.
	Task string
	// Tenant identifies the request's owner for weighted-fair scheduling,
	// admission budgets, quarantine scoping, and per-tenant metrics
	// attribution. Empty is normalized to DefaultTenant at admission.
	// Callers must validate IDs at the edge (cmd/itask-serve bounds length
	// and rejects control characters) — the serving layer uses the string
	// as a map key verbatim.
	Tenant string
	// Image is the (C,H,W) input tensor. The server reads it until Detect
	// returns nil; see Server.Detect for when the caller has it back.
	Image *tensor.Tensor
	// Digest and Decode stand in for Image when it is nil: a request keyed
	// by its content before its pixels are decoded. Digest must be
	// rcache.DigestImage of the tensor Decode returns; it keys the result
	// cache and coalescing in Image's place. The server calls Decode at most
	// once, on the caller's goroutine, and only when the request needs its
	// pixels: after the result-cache probe missed (and the tenant budget
	// allowed it), before the flight join or the queue. A cache hit never
	// calls it. ImageValidator runs on its result. A Decode error is returned
	// as it is and counted as a shape rejection, not an accepted request.
	// The tensor Decode returns is the request's image from then on, under
	// Image's ownership rule (see Server.Detect).
	Digest uint64
	Decode func() (*tensor.Tensor, error)
	// Deadline, when non-zero, is the admission-to-execution deadline:
	// requests still waiting past it are shed instead of executed.
	Deadline time.Time
	// Hot is an upstream hint (the gateway's fleet-wide hot-digest verdict,
	// X-Itask-Hot on HTTP) that this request's content is viral. The server
	// pre-heats the content's digest in the result cache's hot tier, so the
	// entry is promoted to the lock-free replica table without waiting for
	// the local detector — which sees only this shard's slice of the
	// replicated traffic — to trip on its own.
	Hot bool
}

// DegradedBreakerOpen is the Result.Degraded reason for requests rerouted
// to the fallback variant because the preferred variant's breaker was open.
const DegradedBreakerOpen = "breaker-open"

// Result is the successful outcome of one request.
type Result struct {
	// Payload is the backend's per-image result (for the pipeline backend,
	// []itask.Detection).
	Payload any
	// Model names the variant that served the request.
	Model string
	// Tenant is the normalized tenant the request was attributed to (the
	// request's own tenant — a coalesced follower keeps its identity even
	// when another tenant's leader executed the work).
	Tenant string
	// BatchSize is 1: every request executes alone (a cached or coalesced
	// result reports 1 too). It stays for clients that still read the
	// field.
	BatchSize int
	// Degraded is empty for requests served on their preferred variant,
	// and a reason string (DegradedBreakerOpen) for requests the server
	// rerouted to the fallback configuration.
	Degraded string
	// Cached marks a result served straight from the content-addressed
	// result cache: no queue, no kernel ran for it.
	Cached bool
	// Coalesced marks a follower's result produced by another request's
	// execution (singleflight duplicate suppression).
	Coalesced bool
	// Queued is the time spent between admission and execution start.
	Queued time.Duration
	// Total is the admission-to-completion latency.
	Total time.Duration
}

// Outcome is the terminal state of a submitted request: a Result or an
// error, never both.
type Outcome struct {
	Res Result
	Err error
}
