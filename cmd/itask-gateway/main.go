// Command itask-gateway is the distributed serve tier's front door: it
// consistent-hashes detection requests by content across a fleet of
// itask-serve backends, so each frame's result-cache entry lives on exactly
// one shard and the fleet's caches compose instead of overlapping. Routing,
// health, hot-key replication, and epoch propagation are internal/gateway;
// this command is the HTTP shell.
//
// Endpoints:
//
//	POST /v1/detect          route one detection to its content's shard and
//	                         relay the shard's answer verbatim. JSON bodies and
//	                         binary tensor frames (Content-Type
//	                         application/x-itask-tensor, see internal/wire) are
//	                         both accepted; a binary frame's routing digest is
//	                         computed from the raw header and payload bytes —
//	                         no tensor is materialized at the gateway — and the
//	                         body is forwarded verbatim under its original
//	                         content type. The serving
//	                         shard is attributed in X-Itask-Shard (and the
//	                         attempt count in X-Itask-Attempts; hot-replicated
//	                         requests carry X-Itask-Hot: 1). The hot verdict is
//	                         also forwarded on the proxied request, so shards
//	                         pre-promote the digest in their in-process hot
//	                         tier instead of re-detecting virality from their
//	                         1/replicas slice of the traffic.
//	POST /v1/announce        lease-based membership: a shard announces itself
//	                         with {"url","epoch"} and re-POSTs the same body
//	                         as its heartbeat (the ack's lease_ms tells it how
//	                         often). A new (or rejoining) shard ramps to full
//	                         routing weight over the slow-start windows from
//	                         its lease grant, and is on the ring while its
//	                         epoch — the identity of the content it serves —
//	                         is the fleet's committed epoch (any epoch before
//	                         the first fleet reload). A shard that stops
//	                         heartbeating for the lease TTL expires off the
//	                         ring automatically.
//	DELETE /v1/announce      graceful leave: ?url=... (or the same JSON body)
//	                         removes the shard from the ring immediately while
//	                         its in-flight requests finish.
//	POST /v1/models/reload   propagate a model reload fleet-wide: the body is
//	                         relayed to every live backend's reload endpoint,
//	                         on the ring or off it, one exchange each, and
//	                         each backend answers once it routes its new
//	                         versions, with the epoch of the content it then
//	                         serves. The answer, {"epoch":N}, is the epoch
//	                         most backends answered, now the committed one; a
//	                         backend that failed or answered another epoch is
//	                         named in a 502 and routes nothing until it serves
//	                         the committed content, so clients never observe
//	                         version flapping keyed by which shard their frame
//	                         hashes to. A body over the door's limit is a 413.
//	GET  /healthz            200 with fleet counts while at least one backend
//	                         is routable, 503 otherwise
//	GET  /metricsz           gateway snapshot: routing/spill/retry/ejection
//	                         counters, committed epoch, per-node status, and
//	                         per-tenant attribution (per_tenant)
//
// Requests carry an optional tenant identity — the body's "tenant" field or
// the X-Itask-Tenant header, body winning, validated at this door exactly as
// at the shard's (64 bytes, printable). The tenant never affects placement
// (two tenants' identical frames share one shard's cache entry); it is
// forwarded to the shard as X-Itask-Tenant for weighted-fair scheduling and
// budgets there, attributed in the gateway's per-tenant counters, and
// watched by the monopolization guard: a tenant holding more than half the
// fleet's in-flight work is pinned to its ring owners — no hot-replica
// spread, no bounded-load spill — so the elastic capacity stays available
// to the other tenants. The shard's normalized tenant echoes back on the
// response as X-Itask-Tenant.
//
// Requests are keyed the same way the shards key their result caches: an
// image body routes by its rcache content digest, a scene body by its
// (task, domain, seed) identity, and anything else by task, which keeps one
// task's traffic on one shard's batch lanes. Backend verdicts about request
// content (400, 404, 413, 422, 500, 504) relay as-is; 429 and breaker-open
// 503 fail over to a ring successor; connection failures and draining
// backends fail over and count toward ejection.
//
// Failover between attempts is paced: a per-attempt deadline bounds how
// long a blackholed shard can pin a request, retries wait a full-jitter
// exponential backoff (honoring any Retry-After the failed shard sent,
// capped at -retry-backoff-max), and a fleet-wide token-bucket retry budget
// keeps a flapping shard from amplifying into a retry storm.
//
// Usage:
//
//	itask-gateway [-backends http://127.0.0.1:8081,http://127.0.0.1:8082] \
//	              [-addr :8080] [-lease-ttl 3s] [-probe-interval 1s] \
//	              [-hot-threshold 64] [-retry-backoff 25ms] [-retry-backoff-max 1s] \
//	              [-pprof addr]
//
// Every flag sets the one gateway.Config field it names. Everything else —
// ring points, bounded load, hot replicas and their decay window, failover
// attempts, ejection, probe and attempt deadlines, the retry budget, the
// slow-start ramp — is gateway.DefaultConfig(); the suspect horizon is a
// third of the lease.
//
// -pprof serves net/http/pprof on a second listener with mutex and block
// profiling enabled, the same listener itask-serve has.
//
// -backends is an optional static seed list: with lease-based membership on
// (-lease-ttl > 0, the default), a fleet can start empty and populate itself
// entirely from shard announcements (itask-serve -announce). -lease-ttl 0 is
// the static-only mode: -backends is then the whole fleet.
//
// Example:
//
//	curl -si localhost:8080/v1/detect -d '{"task":"patrol","scene":{"domain":"driving","seed":7}}' | grep X-Itask-Shard
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"itask/internal/gateway"
	"itask/internal/member"
	"itask/internal/profiling"
	"itask/internal/rcache"
	"itask/internal/wire"
)

// propagateTimeout is the fleet-wide reload deadline: every backend's reload
// exchange must answer within it.
const propagateTimeout = 30 * time.Second

// options is what itask-gateway runs with: the routing configuration, which
// starts as gateway.DefaultConfig(), and the process's deployment settings.
type options struct {
	cfg             gateway.Config
	addr, pprofAddr string
	backends        []string
}

// parseFlags binds every flag straight onto its options field, the field's
// default value as the flag's default, and parses args.
func parseFlags(flags *flag.FlagSet, args []string) (options, error) {
	o := options{cfg: gateway.DefaultConfig(), addr: ":8080"}
	c := &o.cfg
	flags.StringVar(&o.addr, "addr", o.addr, "listen address")
	flags.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address with mutex/block profiling (empty = off)")
	flags.Func("backends", "comma-separated itask-serve base URLs (optional seed list when leases are on)", func(s string) error {
		o.backends = splitBackends(s)
		return nil
	})
	flags.IntVar(&c.HotThreshold, "hot-threshold", c.HotThreshold, "windowed arrivals past which a digest is replicated (0 = off)")
	flags.DurationVar(&c.ProbeInterval, "probe-interval", c.ProbeInterval, "active health-probe period (0 = passive only)")
	flags.DurationVar(&c.LeaseTTL, "lease-ttl", c.LeaseTTL, "membership lease: a shard that stops heartbeating this long expires off the ring, and turns suspect after a third of it (0 = static -backends only)")
	flags.DurationVar(&c.RetryBackoff, "retry-backoff", c.RetryBackoff, "base of the full-jitter backoff between failover attempts (0 = immediate)")
	flags.DurationVar(&c.RetryBackoffMax, "retry-backoff-max", c.RetryBackoffMax, "cap on the failover backoff and any honored Retry-After")
	if err := flags.Parse(args); err != nil {
		return o, err
	}
	if len(o.backends) == 0 && c.LeaseTTL <= 0 {
		return o, errors.New("no members possible: give a -backends seed list or enable announce-based membership with -lease-ttl")
	}
	return o, nil
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "itask-gateway: %v\n", err)
		os.Exit(2)
	}
	if o.pprofAddr != "" {
		profiling.Serve("itask-gateway", o.pprofAddr)
	}
	cfg := o.cfg
	app, err := newApp(cfg, o.backends, propagateTimeout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "itask-gateway: %v\n", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "itask-gateway: %v\n", err)
		os.Exit(1)
	}
	door := &wire.Server{Handler: app.mux()}

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(os.Stderr, "itask-gateway: draining...")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = door.Shutdown(ctx)
		app.g.Close()
	}()

	fmt.Fprintf(os.Stderr, "itask-gateway: listening on %s, %d seed backends (vnodes=%d load-factor=%g hot=%d/%d retries=%d lease-ttl=%v)\n",
		o.addr, len(o.backends), cfg.VirtualNodes, cfg.LoadFactor, cfg.HotThreshold, cfg.HotReplicas, cfg.MaxRetries, cfg.LeaseTTL)
	if err := door.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "itask-gateway: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "itask-gateway: bye")
}

func splitBackends(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		u = strings.TrimSuffix(strings.TrimSpace(u), "/")
		if u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

type app struct {
	g                *gateway.Gateway
	pool             *connPool
	leaseTTL         time.Duration
	propagateTimeout time.Duration
}

func newApp(cfg gateway.Config, urls []string, propagateTimeout time.Duration) (*app, error) {
	g, err := gateway.New(cfg)
	if err != nil {
		return nil, err
	}
	a := &app{g: g, pool: newConnPool(), leaseTTL: cfg.LeaseTTL, propagateTimeout: propagateTimeout}
	for _, u := range urls {
		n, err := a.newNode(u)
		if err == nil {
			err = g.AddNode(n)
		}
		if err != nil {
			g.Close()
			return nil, err
		}
	}
	return a, nil
}

func (a *app) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/detect", a.detect)
	mux.HandleFunc("/v1/announce", a.announce)
	mux.HandleFunc("/v1/models/reload", a.reload)
	mux.HandleFunc("/healthz", a.healthz)
	mux.HandleFunc("/metricsz", a.metricsz)
	return mux
}

// announceRequest is a shard's self-registration: its dialable base URL
// (the member identity) and its route epoch. Unknown fields are ignored.
type announceRequest struct {
	URL   string `json:"url"`
	Epoch uint64 `json:"epoch"`
}

// announce handles lease-based membership: POST announces (and, re-POSTed,
// renews) a shard; DELETE is a graceful leave.
func (a *app) announce(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
	case http.MethodDelete:
		u := r.URL.Query().Get("url")
		if u == "" {
			var req announceRequest
			if buf, err := wire.ReadBody(w, r, 1<<16); err == nil {
				_ = json.Unmarshal(buf.Bytes(), &req)
				buf.Release()
			}
			u = req.URL
		}
		u = strings.TrimSuffix(strings.TrimSpace(u), "/")
		if u == "" {
			wire.WriteError(w, http.StatusBadRequest, "leave needs the member url (?url= or JSON body)")
			return
		}
		if !a.g.Leave(u) {
			wire.WriteError(w, http.StatusNotFound, "unknown member "+u)
			return
		}
		wire.WriteJSON(w, http.StatusOK, map[string]any{"left": u})
		return
	default:
		wire.WriteError(w, http.StatusMethodNotAllowed, "POST to announce/renew, DELETE to leave")
		return
	}

	buf, err := wire.ReadBody(w, r, 1<<16)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, "unreadable request body")
		return
	}
	var req announceRequest
	uerr := json.Unmarshal(buf.Bytes(), &req)
	buf.Release() // Unmarshal copied everything it kept
	if uerr != nil {
		wire.WriteError(w, http.StatusBadRequest, "announce body must be JSON: "+uerr.Error())
		return
	}
	base := strings.TrimSuffix(strings.TrimSpace(req.URL), "/")
	n, err := a.newNode(base)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, "announce url must be a dialable http base URL: "+err.Error())
		return
	}
	e, err := a.g.Announce(n, member.Meta{Addr: base}, req.Epoch)
	switch {
	case errors.Is(err, member.ErrNoLeases):
		wire.WriteError(w, http.StatusNotImplemented, "lease-based membership disabled; start the gateway with -lease-ttl")
		return
	case err != nil:
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"id":              e.ID,
		"state":           e.State.String(),
		"weight":          e.Weight,
		"lease_ms":        a.leaseTTL.Milliseconds(),
		"committed_epoch": a.g.CommittedEpoch(),
	})
}

// routeKeyFrame derives the routing identity of a binary tensor frame from
// its raw bytes: the header yields the tenant, and the payload is
// content-hashed in place (rcache.DigestFrame) — the digest equals what the
// shard's result cache will compute from the materialized tensor, without
// this door ever materializing one. The key leaves Task empty: a digested
// key is placed by its digest alone. Undecodable frames fall back to the
// empty key and let the shard issue the 400, mirroring routeKey's treatment
// of garbage JSON.
func routeKeyFrame(body []byte) gateway.Key {
	fr, err := wire.ParseFrame(body)
	if err != nil {
		return gateway.Key{}
	}
	return gateway.Key{
		Tenant:    string(fr.Tenant),
		Digest:    rcache.DigestFrame(fr.Shape[:], fr.Payload),
		HasDigest: true,
	}
}

// routeKey derives the request's routing identity from the raw body. Image
// bodies digest exactly as the shard's result cache will digest them, so a
// frame's gateway shard is the shard whose cache can hold its result. Scene
// bodies are deterministic renders, so (task, domain, seed) is their content
// identity — repeats of a seed land on (and hit in) one shard's cache, and a
// viral seed participates in hot-key replication. The body is read by the
// decoder the shard reads it with (wire.DecodeDetect), so the two doors
// cannot disagree about where it ends or what it says; the gateway has no
// image size of its own, so it only derives the key and leaves the verdict
// (DetectBody.Check) to the shard. A body the decoder refuses — malformed,
// a named tightening, or an image no shard could accept (a zero or fourth
// shape entry, more than 2^20 values) — falls back to the empty key, task
// and tenant included: a body is read whole or not at all, so such a request
// is accounted to the header or default tenant while the backend issues the
// 400.
func routeKey(body []byte) gateway.Key {
	rp, err := wire.DecodeDetect(body, 0)
	if err != nil {
		return gateway.Key{}
	}
	defer rp.Release() // the key is all the gateway reads of the pixels
	k := gateway.Key{Task: rp.Task, Tenant: rp.Tenant}
	if img := rp.Image; img != nil && len(img.Shape) == 3 &&
		len(img.Data) == img.Shape[0]*img.Shape[1]*img.Shape[2] {
		k.Digest, k.HasDigest = rcache.DigestPixels(img.Shape, img.Data), true
		return k
	}
	if sc := rp.Scene; sc != nil {
		h := fnv.New64a()
		fmt.Fprintf(h, "scene|%s|%s|%d", rp.Task, sc.Domain, sc.Seed)
		k.Digest, k.HasDigest = h.Sum64(), true
		return k
	}
	return k
}

func (a *app) detect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	buf, err := wire.ReadBody(w, r, wire.MaxBodyBytes)
	if err != nil {
		wire.WriteBodyError(w, err)
		return
	}
	body := buf.Bytes()

	// The tenant rides the body ("tenant" field) or the X-Itask-Tenant
	// header, body winning — the same precedence the shard applies. It is
	// validated here, by the shard's own rule, because it keys the gateway's
	// per-tenant accounting and the monopolization guard before any backend
	// sees it. Binary frames carry both identities in the fixed header, so
	// deriving the key never touches the payload except to hash it.
	contentType := r.Header.Get("Content-Type")
	var key gateway.Key
	if strings.HasPrefix(contentType, wire.ContentType) {
		key = routeKeyFrame(body)
	} else {
		key = routeKey(body)
	}
	if key.Tenant == "" {
		key.Tenant = r.Header.Get("X-Itask-Tenant")
	}
	if verr := wire.ValidateTenant(key.Tenant); verr != nil {
		buf.Release()
		wire.WriteError(w, http.StatusBadRequest, verr.Error())
		return
	}

	var relay *backendResponse
	info, err := a.g.Execute(r.Context(), key, func(ctx context.Context, n gateway.Node, hot bool) error {
		br, ferr := n.(*httpNode).forwardDetect(ctx, body, contentType, hot, key.Tenant)
		if ferr == nil {
			relay = br
		} else if br != nil {
			// A classified failure (429/503) still carried a fully-read
			// response body; this attempt's relay is dead, recycle it.
			br.release()
		}
		return ferr
	})
	// Every attempt's relay wrote the body on this goroutine and returned;
	// nothing reads it any more, whatever the outcome.
	buf.Release()
	// The answer's header values share one array, not a slice per Set. The
	// keys are canonical already, and each value is a full slice expression,
	// so a later Add copies it instead of writing into its neighbour.
	h := w.Header()
	var vals [7]string
	n := 0
	set := func(key, value string) {
		vals[n] = value
		h[key] = vals[n : n+1 : n+1]
		n++
	}
	set("X-Itask-Shard", info.Node)
	set("X-Itask-Attempts", strconv.Itoa(info.Attempts))
	if info.Hot {
		set("X-Itask-Hot", "1")
	}
	if err != nil || relay == nil {
		a.writeRouteError(w, err)
		return
	}
	defer relay.release()
	for _, kv := range [...]struct{ name, value string }{
		// A shard that somehow omitted the header still answered our JSON
		// protocol; don't let the client sniff.
		{"Content-Type", cmp.Or(relay.contentType, "application/json")},
		{"Retry-After", relay.retryAfter},
		{"X-Itask-Degraded", relay.degraded},
		{"X-Itask-Tenant", relay.tenant},
	} {
		if kv.value != "" {
			set(kv.name, kv.value)
		}
	}
	w.WriteHeader(relay.status)
	_, _ = w.Write(relay.body)
}

// writeRouteError maps a routing failure (every attempt exhausted) onto a
// status the client can act on.
func (a *app) writeRouteError(w http.ResponseWriter, err error) {
	switch {
	case err == nil:
		wire.WriteError(w, http.StatusBadGateway, "no backend response")
	case errors.Is(err, gateway.ErrNoNodes):
		wire.WriteError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		wire.WriteError(w, http.StatusGatewayTimeout, err.Error())
	case gateway.Classify(err) == gateway.ClassOverload:
		w.Header().Set("Retry-After", "1")
		wire.WriteError(w, http.StatusTooManyRequests, err.Error())
	default:
		wire.WriteError(w, http.StatusBadGateway, err.Error())
	}
}

func (a *app) reload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	buf, err := wire.ReadBody(w, r, wire.MaxBodyBytes)
	if err != nil {
		wire.WriteBodyError(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), a.propagateTimeout)
	defer cancel()
	epoch, err := a.g.Propagate(ctx, buf.Bytes())
	buf.Release() // every publish has answered: nothing reads the body now
	if err != nil {
		code := http.StatusBadGateway
		if errors.Is(err, context.DeadlineExceeded) {
			// Some reload did not answer in time; the committed epoch names
			// what the backends that did answer reached.
			code = http.StatusGatewayTimeout
		}
		wire.WriteJSON(w, code, map[string]any{"error": err.Error(), "epoch": epoch})
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{"epoch": epoch})
}

func (a *app) healthz(w http.ResponseWriter, r *http.Request) {
	snap := a.g.Snapshot()
	available := 0
	for _, n := range snap.Nodes {
		// Weight > 0 is a member on the ring (expired and left members, and
		// members off it for their epoch, sit at 0).
		if n.Weight > 0 && !n.Ejected {
			available++
		}
	}
	code := http.StatusOK
	if available == 0 {
		code = http.StatusServiceUnavailable
	}
	wire.WriteJSON(w, code, map[string]any{"backends": len(snap.Nodes), "available": available})
}

func (a *app) metricsz(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, a.g.Snapshot())
}
