// Command itask-serve runs the iTask pipeline behind an HTTP front end: it
// trains (or loads) the quantized generalist, defines the standard tasks,
// and serves concurrent task-conditioned detection — one request per
// execution, from one tenant-fair queue — with admission control, fault
// tolerance (panic isolation, poison quarantine, per-lane circuit breakers
// with quantized-fallback degradation), and graceful shutdown.
//
// Endpoints:
//
//	POST /v1/detect          run detection; body {"task": "...", "scene": {...}}
//	                         or {"task": "...", "image": {"shape": [3,H,W], "data": [...]}};
//	                         with Content-Type application/x-itask-tensor the
//	                         body is instead a binary tensor frame (see
//	                         internal/wire) decoded by slicing — no JSON float
//	                         parsing on the hot path
//	GET  /v1/tasks           list the defined tasks
//	POST /v1/models/reload   hot-swap model versions from a checkpoint
//	                         directory (body {"dir": "..."}, default the
//	                         -models flag): a registry layout loads each
//	                         name's newest version checksum-verified; a flat
//	                         directory reloads teacher.ckpt. The new versions
//	                         route before the answer, which carries "epoch",
//	                         the route epoch /healthz reports
//	GET  /healthz            per-task health from the per-lane breaker
//	                         states: 200 "ok", 200 "degraded" while open
//	                         lanes still have a healthy fallback, 503 once a
//	                         task has every lane open with no healthy
//	                         fallback, 503 when draining; the body always
//	                         carries "epoch", the route epoch: the content
//	                         identity of the registry (a hash of each routable
//	                         model's name and checksum), equal on shards that
//	                         loaded the same bytes
//	GET  /metricsz           serving metrics snapshot (latency percentiles,
//	                         throughput, queue depth, shed/reject/fault
//	                         counters, per-lane breaker states, per-version
//	                         model attribution, registry publish/rollback
//	                         counters, model-cache hit rate)
//
// Failure modes map onto HTTP statuses: malformed input (including an
// oversized or control-character tenant id) is 400, content quarantined as
// poison (with -neg-ttl) is 422, admission backpressure — a full queue, an
// exhausted per-tenant share, or an overdrawn -tenant-rate budget — is 429
// with Retry-After, draining or an open circuit with no healthy fallback is
// 503 (the breaker case carries Retry-After), an isolated backend panic is
// 500, and a missed deadline or watchdog-abandoned execution is 504. Requests served by the quantized fallback while their
// preferred lane's breaker is open succeed with "degraded" set in the body
// and an X-Itask-Degraded response header.
//
// Usage:
//
//	itask-serve [-addr :8080] [-models dir] [-students] \
//	            [-workers GOMAXPROCS] [-slo 0] \
//	            [-cache-bytes 33554432] [-neg-ttl 0] [-hot-threshold 64] \
//	            [-tenant-weights gold=4,free=1] [-tenant-rate 0] [-tenant-burst 0] \
//	            [-pprof addr] [-announce gateway-url] [-advertise url]
//
// With no flags the shard serves serve.DefaultConfig(); every flag sets the
// one field it names, and everything else — the 256-request queue, the
// watchdog, breakers, cache TTL, coalescing, the hot tier's budget — is that
// default.
//
// -cache-bytes sizes the content-addressed result cache (0 disables it):
// repeated frames are answered from memory without running a kernel, and
// concurrent duplicate requests collapse into one execution.
// -hot-threshold enables the cache's hot replica tier (0 disables it): a
// digest read that many times within a decay window is promoted to a
// lock-free replicated table, so a viral frame's readers stop serializing on
// one cache-shard mutex. A gateway's fleet-wide hot verdict arriving as an
// X-Itask-Hot request header pre-promotes the digest without waiting for the
// local detector.
// Requests carry their tenant in the body's "tenant" field or the
// X-Itask-Tenant header (body wins); the normalized attribution is echoed
// back as an X-Itask-Tenant response header. -tenant-weights sets DRR
// weights for the weighted-fair queue (unlisted tenants weigh 1);
// -tenant-rate/-tenant-burst arm per-tenant token-bucket admission budgets.
// -pprof serves net/http/pprof on a second listener with mutex and block
// profiling enabled, for inspecting lock contention under load.
// -announce joins an itask-gateway's lease-based fleet membership: the
// shard registers with POST /v1/announce once it is listening, renews every
// third of the lease the gateway grants, jittered (carrying its route
// epoch, so the gateway routes to it only while it serves the fleet's
// committed content), and deregisters before draining on SIGTERM. -advertise overrides the self URL sent to the gateway, for
// when the listen address is not what peers should dial (NAT, 0.0.0.0).
//
// Example:
//
//	curl -s localhost:8080/v1/detect -d '{"task":"patrol","scene":{"domain":"driving","seed":7}}'
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"itask"
	"itask/internal/dataset"
	"itask/internal/kernels"
	"itask/internal/profiling"
	"itask/internal/serve"
	"itask/internal/wire"
)

// options is what itask-serve runs with: the serving configuration, which
// starts as serve.DefaultConfig(), and the process's deployment settings.
type options struct {
	cfg                                          serve.Config
	addr, models, pprofAddr, announce, advertise string
	students                                     bool
}

// parseFlags binds every flag straight onto its options field, the field's
// default value as the flag's default, parses args, and validates the
// configuration here rather than after the minutes of training ahead.
func parseFlags(flags *flag.FlagSet, args []string) (options, error) {
	o := options{cfg: serve.DefaultConfig(), addr: ":8080"}
	c := &o.cfg
	flags.StringVar(&o.addr, "addr", o.addr, "listen address")
	flags.StringVar(&o.models, "models", "", "load teacher.ckpt from this directory (itask-train output) instead of training")
	flags.BoolVar(&o.students, "students", false, "distill a task-specific student per standard task (slow)")
	flags.IntVar(&c.Workers, "workers", c.Workers, "inference worker goroutines, the shard's compute width (every kernel runs on its worker; default GOMAXPROCS)")
	flags.DurationVar(&c.LatencySLO, "slo", c.LatencySLO, "latency SLO; slower executions count as breaker failures (0 = none)")
	flags.Int64Var(&c.CacheBytes, "cache-bytes", c.CacheBytes, "result-cache byte budget (0 = no cache, and with it no hot tier and no -neg-ttl)")
	flags.DurationVar(&c.NegativeTTL, "neg-ttl", c.NegativeTTL, "quarantine window for content that crashed or hung the backend in isolation; repeats are refused with HTTP 422 for this long (0 = off)")
	flags.IntVar(&c.HotThreshold, "hot-threshold", c.HotThreshold, "reads within the decay window past which a digest's cache entry is replicated lock-free (0 = off)")
	flags.Func("tenant-weights", `comma-separated tenant DRR weights, e.g. "gold=4,free=1" (unset = every tenant weight 1)`, func(s string) (err error) {
		c.TenantWeights, err = parseTenantWeights(s)
		return err
	})
	flags.Float64Var(&c.TenantRate, "tenant-rate", c.TenantRate, "per-tenant admission budget in requests/second (0 = unlimited)")
	flags.Float64Var(&c.TenantBurst, "tenant-burst", c.TenantBurst, "per-tenant burst credits on top of -tenant-rate (0 = one second of rate)")
	flags.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address with mutex/block profiling (empty = off)")
	flags.StringVar(&o.announce, "announce", "", "gateway base URL to join via lease-based membership (empty = standalone)")
	flags.StringVar(&o.advertise, "advertise", "", "base URL to announce as this shard's address (default: derived from the listen address)")
	if err := flags.Parse(args); err != nil {
		return o, err
	}
	return o, c.Validate()
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fatal(err)
	}

	if o.pprofAddr != "" {
		profiling.Serve("itask-serve", o.pprofAddr)
	}

	pipe := itask.New(itask.DefaultOptions())
	for _, t := range dataset.StandardTasks() {
		if err := pipe.DefineTask(t.Name, t.Description); err != nil {
			fatal(err)
		}
	}
	if o.models != "" {
		fmt.Fprintf(os.Stderr, "loading models from %s...\n", o.models)
		loaded, skipped, err := reloadModels(pipe, o.models)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loaded %v (skipped %v)\n", loaded, skipped)
	} else {
		fmt.Fprintln(os.Stderr, "training quantized generalist on the standard task mixture...")
		if err := pipe.TrainGeneralist(nil); err != nil {
			fatal(err)
		}
	}
	if o.students {
		for _, t := range dataset.StandardTasks() {
			if pipe.Student(t.Name) != nil {
				continue // a checkpointed student already loaded for this task
			}
			fmt.Fprintf(os.Stderr, "distilling student for %q...\n", t.Name)
			if err := pipe.DistillStudent(t.Name, t.Domain); err != nil {
				fatal(err)
			}
		}
	}

	backend := pipe.ServeBackend()
	srv, err := serve.New(backend, o.cfg)
	if err != nil {
		fatal(err)
	}

	h := &handler{
		pipe:      pipe,
		srv:       srv,
		backend:   backend,
		modelsDir: o.models,
		imageSize: itask.DefaultOptions().TeacherCfg.ImageSize,
	}
	door := &wire.Server{Handler: h.mux()}

	// Listen before announcing: the advertised URL comes from the bound
	// address (which resolves ":0"-style ephemeral ports), and the gateway
	// will start probing the shard the moment it announces.
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fatal(err)
	}
	var ann *announcer
	if o.announce != "" {
		self := o.advertise
		if self == "" {
			self = advertiseURL(ln.Addr())
		}
		ann = newAnnouncer(o.announce, self, h.routeEpoch)
		ann.logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
		ann.start()
		fmt.Fprintf(os.Stderr, "itask-serve: announcing %s to %s\n", self, o.announce)
	}

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(os.Stderr, "itask-serve: draining...")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		// Leave the fleet first so the gateway stops routing here, then
		// stop accepting HTTP, then drain the queue.
		if ann != nil {
			ann.close(ctx)
		}
		_ = door.Shutdown(ctx)
		_ = srv.Shutdown(ctx)
	}()

	fmt.Fprintf(os.Stderr, "itask-serve: listening on %s (workers=%d queue=%d watchdog=%v breaker=%d int8-gemm=%s)\n",
		ln.Addr(), o.cfg.Workers, o.cfg.QueueCap, o.cfg.Watchdog, o.cfg.BreakerThreshold, kernels.GemmI8Body())
	if err := door.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "itask-serve: bye")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "itask-serve: %v\n", err)
	os.Exit(1)
}

// releasePixels hands a served request's pixels back to the pool. Tests
// poison them on the way.
var releasePixels = (*wire.DetectBody).Release

type handler struct {
	pipe *itask.Pipeline
	srv  *serve.Server
	// backend is the serve.Backend the server routes over; /healthz
	// consults its FallbackRouter to tell degraded from unavailable.
	backend serve.Backend
	// modelsDir is the -models flag, the default /v1/models/reload source.
	modelsDir string
	imageSize int
	// memo keys repeated JSON bodies off their bytes (see parseCall).
	memo digestMemo
	// answers holds cached answers' encoded detections (see answerMemo).
	answers answerMemo
}

func (h *handler) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/detect", h.detect)
	mux.HandleFunc("/v1/tasks", h.tasks)
	mux.HandleFunc("/v1/models/reload", h.reload)
	mux.HandleFunc("/healthz", h.healthz)
	mux.HandleFunc("/metricsz", h.metricsz)
	return mux
}

func (h *handler) detect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	buf, err := wire.ReadBody(w, r, wire.MaxBodyBytes)
	if err != nil {
		wire.WriteBodyError(w, err)
		return
	}
	// The body is read until Detect returns (a decode serve asks for runs on
	// this goroutine), and everything that outlives it is a copy — strings,
	// and the pixels in pooled memory of their own — so the pooled body can
	// be recycled the moment the handler returns even if a
	// watchdog-abandoned execution is still reading the image.
	defer buf.Release()
	c, err := h.parseCall(r.Header.Get("Content-Type"), buf.Bytes())
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	dr := c.dr
	tenant := dr.Tenant
	if tenant == "" {
		tenant = r.Header.Get("X-Itask-Tenant")
		if err := wire.ValidateTenant(tenant); err != nil {
			wire.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	req := c.request()
	req.Task, req.Tenant, req.Hot = dr.Task, tenant, r.Header.Get("X-Itask-Hot") == "1"
	if dr.TimeoutMS > 0 {
		req.Deadline = time.Now().Add(time.Duration(dr.TimeoutMS) * time.Millisecond)
	}
	res, err := h.srv.Detect(r.Context(), req)
	if c.err != nil {
		wire.WriteError(w, http.StatusBadRequest, c.err.Error())
		return
	}
	if err != nil {
		// An abandoned, cancelled or shed request may still be read by a
		// server goroutine: its pixels are left to the garbage collector.
		if ra, ok := retryAfter(err); ok {
			w.Header().Set("Retry-After", strconv.Itoa(ra))
		}
		wire.WriteError(w, statusOf(err), err.Error())
		return
	}
	// Detect succeeded, so no server goroutine reads the image again
	// (serve.Server.Detect's ownership rule): the pixels go back to the pool.
	releasePixels(c.dr)
	dets, _ := res.Payload.([]itask.Detection)
	if dets == nil {
		dets = []itask.Detection{}
	}
	if res.Degraded != "" {
		w.Header().Set("X-Itask-Degraded", res.Degraded)
	}
	// Echo the normalized attribution so callers (and the gateway's smoke
	// tooling) can see which tenant's ledger the request landed on.
	w.Header().Set("X-Itask-Tenant", res.Tenant)
	resp := detectResponse{
		Task:       dr.Task,
		Model:      res.Model,
		BatchSize:  res.BatchSize,
		QueuedUS:   float64(res.Queued.Microseconds()),
		TotalUS:    float64(res.Total.Microseconds()),
		Degraded:   res.Degraded,
		Cached:     res.Cached,
		Coalesced:  res.Coalesced,
		Detections: dets,
	}
	if res.Cached {
		resp.answers = &h.answers
	}
	wire.WriteAppendedJSON(w, http.StatusOK, resp.appendJSON)
}

func (h *handler) tasks(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, map[string]any{"tasks": h.pipe.Tasks()})
}

func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	rep, code := computeHealth(h.srv.Draining(), h.pipe.Tasks(), h.srv.Breakers(), h.fallbackFor)
	rep.Epoch = h.routeEpoch()
	wire.WriteJSON(w, code, rep)
}

// routeEpoch names the content the shard serves (the registry snapshot's
// Identity), reported by /healthz and a reload's answer and sent with every
// announce; 0 without a pipeline. The serve layer's RouteEpoch stays the
// snapshot sequence: its route memo must move on every swap.
func (h *handler) routeEpoch() uint64 {
	if h.pipe == nil {
		return 0
	}
	return h.pipe.Registry().Snapshot().Identity()
}

// fallbackFor reports the degraded-configuration variant that could serve a
// task if its preferred lane's breaker is open, when the backend has one.
func (h *handler) fallbackFor(task string) (string, bool) {
	fr, ok := h.backend.(serve.FallbackRouter)
	if !ok {
		return "", false
	}
	v, err := fr.RouteFallback(task)
	return v, err == nil
}

// reloadRequest is the /v1/models/reload body; an empty body is allowed.
type reloadRequest struct {
	// Dir overrides the -models checkpoint directory for this reload.
	Dir string `json:"dir"`
}

func (h *handler) reload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	buf, err := wire.ReadBody(w, r, wire.MaxBodyBytes)
	if err != nil {
		wire.WriteBodyError(w, err)
		return
	}
	defer buf.Release()
	var req reloadRequest
	if body := buf.Bytes(); len(bytes.TrimSpace(body)) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			wire.WriteError(w, http.StatusBadRequest, "bad reload request: "+err.Error())
			return
		}
	}
	dir := req.Dir
	if dir == "" {
		dir = h.modelsDir
	}
	if dir == "" {
		wire.WriteError(w, http.StatusBadRequest, `no models directory: pass {"dir": ...} or start with -models`)
		return
	}
	loaded, skipped, err := reloadModels(h.pipe, dir)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, fs.ErrNotExist) {
			code = http.StatusNotFound
		}
		wire.WriteError(w, code, err.Error())
		return
	}
	if loaded == nil {
		loaded = []string{}
	}
	if skipped == nil {
		skipped = []string{}
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{"reloaded": loaded, "skipped": skipped, "epoch": h.routeEpoch()})
}

func (h *handler) metricsz(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, h.srv.Snapshot())
}

// statusOf maps serving-layer errors onto HTTP status codes: malformed
// input is the caller's fault (400), queue full and an overdrawn tenant
// budget are backpressure (429),
// draining or an open breaker with no healthy fallback is unavailability
// (503), an isolated backend panic is an internal error (500), a missed
// deadline or watchdog-abandoned execution is a gateway timeout (504), and
// anything else from admission is an unknown task (404).
func statusOf(err error) int {
	switch {
	case errors.Is(err, serve.ErrBadShape):
		return http.StatusBadRequest
	case errors.Is(err, serve.ErrQuarantined):
		// The content itself recently crashed or hung the backend; the
		// request is well-formed but unprocessable, and retrying it anywhere
		// would reproduce the fault.
		return http.StatusUnprocessableEntity
	case errors.Is(err, serve.ErrQueueFull), errors.Is(err, serve.ErrTenantBudget):
		return http.StatusTooManyRequests
	case errors.Is(err, serve.ErrShuttingDown), errors.Is(err, serve.ErrBreakerOpen):
		return http.StatusServiceUnavailable
	case errors.Is(err, serve.ErrBackendPanic):
		return http.StatusInternalServerError
	case errors.Is(err, serve.ErrDeadlineExceeded),
		errors.Is(err, serve.ErrWatchdog),
		errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusNotFound
	}
}

// retryAfter extracts the Retry-After hint for retryable rejections: the
// breaker's own backoff for an open circuit and the token bucket's refill
// time for an overdrawn tenant budget (each rounded up to a whole second,
// minimum 1), a flat second for queue-full backpressure.
func retryAfter(err error) (int, bool) {
	var bo *serve.BreakerOpenError
	if errors.As(err, &bo) {
		secs := int((bo.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		return secs, true
	}
	var tb *serve.TenantBudgetError
	if errors.As(err, &tb) {
		secs := int((tb.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		return secs, true
	}
	if errors.Is(err, serve.ErrQueueFull) {
		return 1, true
	}
	return 0, false
}

// parseTenantWeights parses the -tenant-weights flag: comma-separated
// name=weight pairs with positive integer weights.
func parseTenantWeights(s string) (map[string]int, error) {
	weights := map[string]int{}
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -tenant-weights entry %q, want name=weight", pair)
		}
		if err := wire.ValidateTenant(name); err != nil {
			return nil, fmt.Errorf("bad -tenant-weights tenant %q: %v", name, err)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad -tenant-weights weight %q for %q, want positive integer", val, name)
		}
		if _, dup := weights[name]; dup {
			return nil, fmt.Errorf("duplicate -tenant-weights tenant %q", name)
		}
		weights[name] = w
	}
	return weights, nil
}
