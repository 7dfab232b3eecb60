// Package gateway is iTask's distributed serve tier: a front door that
// consistent-hashes detection requests by content digest across a fleet of
// itask-serve backends, so each frame's result-cache entry lives on exactly
// one shard and the fleet's aggregate cache behaves like one large cache
// instead of N overlapping small ones.
//
// The design is five cooperating layers:
//
//   - Membership: the fleet is dynamic, and every member has exactly one
//     record (ring.go's shard: node handle, lease state, last reported
//     epoch, health atomics) in one map under one mutex. Shards announce
//     themselves and renew heartbeat leases (Announce/Renew); the lease
//     rules — a slow-start weight ramp from the grant, suspect→expired on
//     missed renewals, graceful Leave — are internal/member's pure state
//     machine over that record, which knows no epochs. A static seed list
//     (AddNode) still works and can mix with leased members. One rule
//     (routable) decides who may receive new work, and it is the only place
//     a reported epoch is compared.
//   - Placement (ring.go): a consistent-hash ring with virtual nodes.
//     Requests route by the rcache content digest of their image (requests
//     without a digestable image fall back to a task key, keeping a task's
//     traffic on one shard, where its model stays warm). Node join/leave remaps only
//     ~K/N keys. With LoadFactor > 0 the ring is bounded-load: an owner
//     already carrying more than LoadFactor times the fleet-average
//     in-flight work spills the request to its successor instead of
//     queueing behind the herd.
//   - Hot keys (internal/freq MJRTY estimator): per-digest arrival counting
//     detects zipf-hot content; a hot digest is served by its HotReplicas
//     ring successors with power-of-two-choices balancing between them, so
//     one viral frame engages several shards' capacity instead of
//     saturating its owner (each replica answers from its own result cache
//     after one miss). The verdict also rides the proxied request
//     (Request.Hot / X-Itask-Hot) so shards pre-promote fleet-hot digests
//     into their in-process replica tier (see internal/rcache).
//   - Health (health.go): active probes plus passive failure accounting
//     eject an unreachable member; its keys rehash to successors and a
//     request caught mid-death retries once on the successor, so a node
//     death costs healthy traffic nothing. Failover is paced (retry.go):
//     per-attempt deadlines bound how long a blackholed shard can hold a
//     request, full-jitter backoff and Retry-After honor space the retries,
//     and a fleet-wide token-bucket retry budget keeps a flapping shard
//     from amplifying into a retry storm.
//   - Epochs (epoch.go): a member's route epoch names the content it serves
//     (registry.Snapshot.Identity), so shards that loaded the same bytes
//     report the same epoch however many reloads each took. A model publish
//     is validated once, then applied on every live member in one
//     synchronous exchange each, whose answer is the member's new epoch;
//     the value most members answered becomes the committed epoch. A member
//     whose last report differs from it is off the ring until it reports
//     the committed one.
//
// The package is transport-agnostic: a Node is any handle with an ID, and
// the request path works through Execute's callback, so in-process fleets
// (ServeNode over serve.Server) and HTTP fleets (cmd/itask-gateway) share
// all routing, membership, health, and epoch machinery.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"itask/internal/fair"
	"itask/internal/freq"
	"itask/internal/member"
	"itask/internal/rcache"
	"itask/internal/serve"
)

// Node is one backend shard as the gateway sees it. ID must be stable and
// unique across the fleet — it determines the member's ring placement, so
// every gateway instance with the same member set routes identically.
type Node interface {
	ID() string
}

// DetectNode is implemented by nodes that execute detection requests
// directly (in-process fleets). Gateway.Detect requires it; HTTP fleets
// that forward opaque bodies use Execute instead.
type DetectNode interface {
	Node
	Detect(ctx context.Context, req serve.Request) (serve.Result, error)
}

// HealthNode is optionally implemented by nodes the prober can ask how they
// are. Health is one exchange with the node, read two ways: down is nil for
// a live node, and otherwise counts toward ejection exactly like a request
// failure (nil clears failure accounting and lifts an ejection early); epoch
// is the node's route epoch (for the pipeline backend, the registry
// snapshot's content identity), valid when hasEpoch — whenever the node
// answered with one, down or not. The prober takes both readings.
type HealthNode interface {
	Health(ctx context.Context) (epoch uint64, hasEpoch bool, down error)
}

// ErrClass buckets node errors by what the gateway should do about them.
type ErrClass int

const (
	// ClassOK: no error.
	ClassOK ErrClass = iota
	// ClassRequest: the request's own fault (bad shape, poison content,
	// missed deadline). The node is healthy; retrying the same content on a
	// successor would just spread the failure. Returned to the caller.
	ClassRequest
	// ClassOverload: the node is saturated (queue full, breaker open). The
	// request spills to a successor once, but the node is not penalized —
	// load is not death.
	ClassOverload
	// ClassNodeDown: the node is unreachable or draining. The request
	// retries on a successor and the failure counts toward ejection.
	ClassNodeDown
)

// NodeError lets adapters that understand their transport (HTTP status
// codes, connection errors) pass an explicit class through Execute's
// callback. Errors not wrapped in NodeError are classified from the serve
// sentinels by Classify.
type NodeError struct {
	Class ErrClass
	// RetryAfter is the shard's advertised retry horizon (parsed from a
	// Retry-After header on 429/503), honored by the failover pacing: the
	// next attempt waits min(RetryAfter, RetryBackoffMax) instead of firing
	// immediately. Zero means no hint.
	RetryAfter time.Duration
	Err        error
}

func (e *NodeError) Error() string { return e.Err.Error() }
func (e *NodeError) Unwrap() error { return e.Err }

// Classify buckets an error from a node. Adapters override via NodeError;
// serve sentinels map per the taxonomy above; unknown errors are treated as
// the request's own (fail fast, never penalize a node for content).
func Classify(err error) ErrClass {
	if err == nil {
		return ClassOK
	}
	var ne *NodeError
	if errors.As(err, &ne) {
		return ne.Class
	}
	switch {
	case errors.Is(err, serve.ErrShuttingDown):
		return ClassNodeDown
	case errors.Is(err, serve.ErrQueueFull), errors.Is(err, serve.ErrBreakerOpen):
		return ClassOverload
	default:
		return ClassRequest
	}
}

// Gateway-level sentinels.
var (
	// ErrNoNodes: the ring is empty (or every member is ejected and the
	// last-resort attempt failed too).
	ErrNoNodes = errors.New("gateway: no nodes available")
	// ErrUnsupportedChange: Propagate was asked to publish to a node that
	// does not implement ChangeApplier.
	ErrUnsupportedChange = errors.New("gateway: node cannot apply registry changes")
	// ErrRetryBudget: a failover retry was wanted but the fleet-wide retry
	// budget was exhausted; the request carries its shard's last error.
	ErrRetryBudget = errors.New("gateway: retry budget exhausted")
)

// Config sizes the gateway.
type Config struct {
	// VirtualNodes is the number of ring points per full-weight member
	// (smooths the per-member key share). Warming members project a
	// weight-scaled prefix of their points.
	VirtualNodes int
	// LoadFactor is the bounded-load factor c: an owner already carrying
	// ⌈c × (fleet in-flight + 1) / members⌉ spills to its successor. 0
	// disables bounded load; sensible values are 1.1–2.0.
	LoadFactor float64
	// HotThreshold is the windowed per-digest arrival count past which a
	// digest is treated as hot and replicated. 0 disables hot-key handling.
	// The window is freq.DefaultDecay arrivals, the one shards' in-process
	// promotion detectors use, so gateway and shard agree on what "recent"
	// means.
	HotThreshold int
	// HotReplicas is how many ring successors serve a hot digest (≥ 2 when
	// HotThreshold > 0).
	HotReplicas int
	// MaxRetries is how many failover attempts a request gets on successor
	// shards after an overload- or down-class failure.
	MaxRetries int
	// FailThreshold is how many consecutive down-class failures eject a
	// member. 0 disables ejection.
	FailThreshold int
	// EjectFor is how long an ejected member is skipped by routing before
	// passively rejoining (a successful probe rejoins it earlier).
	EjectFor time.Duration
	// ProbeInterval is the active health-probe period. 0 disables the
	// prober (health is then purely passive).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (defaults to ProbeInterval when zero).
	ProbeTimeout time.Duration

	// LeaseTTL enables lease-based membership: Announce grants a lease this
	// long, renewals extend it, and a member that misses renewals for the
	// whole TTL expires off the ring. 0 disables Announce (static AddNode
	// membership only).
	LeaseTTL time.Duration
	// SuspectAfter is how long without renewal before a member is marked
	// suspect (still routable — the grace part of the lease). 0 derives
	// LeaseTTL/3.
	SuspectAfter time.Duration
	// RampWindows is the slow-start span: a newly leased member's routing
	// weight climbs 1/N, 2/N, … 1 over its first N renewals. 0 defaults to
	// 4; 1 disables the ramp.
	RampWindows int
	// SweepInterval is how often the lease sweeper advances suspect/expiry
	// timers. 0 defaults to LeaseTTL/4 (min 10ms).
	SweepInterval time.Duration

	// AttemptTimeout is the per-attempt deadline: each node attempt runs
	// under min(request deadline, AttemptTimeout), so a blackholed shard
	// costs a request one bounded slice before failover, not its whole
	// deadline. 0 disables (attempts inherit the request ctx alone).
	AttemptTimeout time.Duration
	// RetryBackoff is the base of the full-jitter exponential backoff
	// between failover attempts: attempt k waits uniform
	// [0, min(RetryBackoff × 2^k, RetryBackoffMax)). 0 retries immediately.
	RetryBackoff time.Duration
	// RetryBackoffMax caps both the backoff ceiling and any honored
	// Retry-After hint. 0 defaults to 32 × RetryBackoff.
	RetryBackoffMax time.Duration
	// RetryBudgetRate refills the fleet-wide failover token bucket, in
	// tokens per second; every failover attempt spends one token, and a dry
	// bucket fails the request with its last shard error instead of
	// retrying. 0 disables the budget (unlimited retries).
	RetryBudgetRate float64
	// RetryBudgetBurst is the bucket depth (defaults to 1 when a rate is
	// set without one).
	RetryBudgetBurst int

	// Clock is the membership clock (defaults to time.Now). Injectable so
	// lease-timing tests need not sleep.
	Clock func() time.Time
}

// DefaultConfig returns a gateway sized for a handful of shards: 128 vnodes,
// bounded load at 1.25, hot keys past 64 windowed arrivals spread over 2
// replicas, one failover retry, ejection after 3 consecutive failures for
// 2s, probes every second. Membership leases run at 3s with a 4-window
// slow-start ramp, and failover is paced: 2s per-attempt deadline, 25ms
// full-jitter backoff capped at 1s, and a 10 token/s (burst 20) fleet-wide
// retry budget.
func DefaultConfig() Config {
	return Config{
		VirtualNodes:  128,
		LoadFactor:    1.25,
		HotThreshold:  64,
		HotReplicas:   2,
		MaxRetries:    1,
		FailThreshold: 3,
		EjectFor:      2 * time.Second,
		ProbeInterval: time.Second,
		ProbeTimeout:  500 * time.Millisecond,

		LeaseTTL:    3 * time.Second,
		RampWindows: 4,

		AttemptTimeout:   2 * time.Second,
		RetryBackoff:     25 * time.Millisecond,
		RetryBackoffMax:  time.Second,
		RetryBudgetRate:  10,
		RetryBudgetBurst: 20,
	}
}

// Validate rejects configurations that cannot route.
func (c Config) Validate() error {
	switch {
	case c.VirtualNodes <= 0:
		return fmt.Errorf("gateway: VirtualNodes must be positive, got %d", c.VirtualNodes)
	case c.LoadFactor != 0 && c.LoadFactor <= 1:
		return fmt.Errorf("gateway: LoadFactor must be > 1 (or 0 to disable), got %g", c.LoadFactor)
	case c.HotThreshold < 0:
		return fmt.Errorf("gateway: negative HotThreshold %d", c.HotThreshold)
	case c.HotThreshold > 0 && c.HotReplicas < 2:
		return fmt.Errorf("gateway: HotThreshold %d needs HotReplicas >= 2, got %d", c.HotThreshold, c.HotReplicas)
	case c.MaxRetries < 0:
		return fmt.Errorf("gateway: negative MaxRetries %d", c.MaxRetries)
	case c.FailThreshold < 0:
		return fmt.Errorf("gateway: negative FailThreshold %d", c.FailThreshold)
	case c.FailThreshold > 0 && c.EjectFor <= 0:
		return fmt.Errorf("gateway: FailThreshold %d needs a positive EjectFor, got %v", c.FailThreshold, c.EjectFor)
	case c.ProbeInterval < 0:
		return fmt.Errorf("gateway: negative ProbeInterval %v", c.ProbeInterval)
	case c.LeaseTTL < 0:
		return fmt.Errorf("gateway: negative LeaseTTL %v", c.LeaseTTL)
	case c.SuspectAfter < 0 || c.SuspectAfter > c.LeaseTTL:
		return fmt.Errorf("gateway: SuspectAfter %v must be in [0, LeaseTTL=%v]", c.SuspectAfter, c.LeaseTTL)
	case c.RampWindows < 0:
		return fmt.Errorf("gateway: negative RampWindows %d", c.RampWindows)
	case c.SweepInterval < 0:
		return fmt.Errorf("gateway: negative SweepInterval %v", c.SweepInterval)
	case c.AttemptTimeout < 0:
		return fmt.Errorf("gateway: negative AttemptTimeout %v", c.AttemptTimeout)
	case c.RetryBackoff < 0 || c.RetryBackoffMax < 0:
		return fmt.Errorf("gateway: negative retry backoff (%v, max %v)", c.RetryBackoff, c.RetryBackoffMax)
	case c.RetryBudgetRate < 0 || c.RetryBudgetBurst < 0:
		return fmt.Errorf("gateway: negative retry budget (rate %g, burst %d)", c.RetryBudgetRate, c.RetryBudgetBurst)
	}
	return nil
}

// Gateway routes requests across the fleet. Create with New; all methods
// are safe for concurrent use.
type Gateway struct {
	cfg    Config
	m      counters
	hot    *freq.Tracker // nil when hot-key handling is off
	budget *fair.Budget  // one key: the fleet; unlimited at rate 0
	rules  member.Rules

	// mu guards members — every announced member's one record, routable or
	// not — and each record's rec, epoch and vnodes; it also orders commits
	// of the epoch against epoch reports. The ring published from them is
	// copy-on-write, so the request path reads it lock-free.
	mu      sync.Mutex
	members map[string]*shard
	ring    atomic.Pointer[ringState]

	// committedEpoch is the content identity the last Propagate committed
	// (0: nothing committed yet). Written under mu.
	committedEpoch atomic.Uint64

	// p2cSeq derandomizes power-of-two-choices pair selection: it is cheap,
	// race-free, and cycles through replica pairs so ties in in-flight load
	// still spread across the set.
	p2cSeq atomic.Uint64

	// tenants attributes routing per tenant; inflightAll is the fleet-wide
	// in-flight total the dominance guard compares each tenant against.
	tenants     tenantTable
	inflightAll atomic.Int64

	stop chan struct{}
	done sync.WaitGroup
}

// New validates the configuration and starts the health prober (when
// ProbeInterval > 0) and the lease sweeper (when LeaseTTL > 0). Nodes join
// via AddNode (static seeds) or Announce (leased members).
func New(cfg Config) (*Gateway, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = cfg.ProbeInterval
	}
	if cfg.RetryBackoff > 0 && cfg.RetryBackoffMax == 0 {
		cfg.RetryBackoffMax = 32 * cfg.RetryBackoff
	}
	g := &Gateway{
		cfg:    cfg,
		hot:    freq.New(cfg.HotThreshold, freq.DefaultSlots, freq.DefaultDecay),
		budget: fair.NewBudget(cfg.RetryBudgetRate, max(1, float64(cfg.RetryBudgetBurst))),
		rules: member.Rules{
			LeaseTTL:     cfg.LeaseTTL,
			SuspectAfter: cfg.SuspectAfter,
			RampWindows:  cfg.RampWindows,
			Now:          cfg.Clock,
		}.WithDefaults(),
		members: map[string]*shard{},
		stop:    make(chan struct{}),
	}
	g.ring.Store(buildRing(nil, cfg.VirtualNodes))
	if cfg.ProbeInterval > 0 {
		g.done.Add(1)
		go g.proberLoop()
	}
	if cfg.LeaseTTL > 0 {
		g.done.Add(1)
		go g.sweeperLoop()
	}
	return g, nil
}

// Close stops the prober and lease sweeper. It does not touch the nodes.
func (g *Gateway) Close() {
	g.mu.Lock()
	select {
	case <-g.stop:
	default:
		close(g.stop)
	}
	g.mu.Unlock()
	g.done.Wait()
}

// afterEjections is a time by which every ejection has lapsed. Ejection is
// temporary and ends without a ring rebuild, so the ring asks routable about
// then: it holds the members that may receive work once not ejected.
const afterEjections = math.MaxInt64

// routable is the gateway's one answer to "may this member receive new work
// at now": its lease is live, it last reported the committed epoch (or
// nothing is committed yet), and it is not ejected. It is the only place a
// reported epoch is compared. The ring is this rule published —
// rebuildLocked runs after every change to a record or to the committed
// epoch and keeps exactly the members the rule accepts — so Execute, which
// reads the ring lock-free, re-checks only the clause that changes with
// time alone (ejected). Callers hold g.mu.
func (g *Gateway) routable(s *shard, nowNanos int64) bool {
	c := g.committedEpoch.Load()
	return s.rec.State.Live() && (c == 0 || s.epoch == c) && !s.ejected(nowNanos)
}

// rebuildLocked republishes the ring if any member's share of it changed:
// every routable member at its weight-scaled vnode count, nobody else.
// Callers hold g.mu.
func (g *Gateway) rebuildLocked() {
	changed := false
	on := make([]*shard, 0, len(g.members))
	for _, s := range g.members {
		n := 0
		if g.routable(s, afterEjections) {
			// At least one point, so a warming member is reachable at all.
			n = max(1, int(g.rules.Weight(&s.rec)*float64(g.cfg.VirtualNodes)+0.5))
			on = append(on, s)
		} else if s.vnodes > 0 && s.rec.State.Live() {
			g.m[cEpochDrift].Add(1) // a live lease fell off the ring: its epoch left the committed one
		}
		if n != s.vnodes {
			s.vnodes, changed = n, true
		}
	}
	if changed {
		g.ring.Store(buildRing(on, g.cfg.VirtualNodes))
	}
}

// AddNode joins a static member to the ring at full weight: no lease, no
// warm-up, never expires — the seed-list path, for fleets (or tests) that
// are configured by hand; it is taken to be at the committed epoch until
// observed otherwise. Its share of the key space (~K/N keys) moves to it
// from the former owners; everything else keeps its owner.
func (g *Gateway) AddNode(n Node) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, err := g.announceLocked(n, member.Meta{Static: true}, g.committedEpoch.Load())
	return err
}

// Announce registers a leased member reporting epoch (or renews a live one —
// re-announce is a heartbeat). The lease ramps up under slow-start from the
// grant; the member is on the ring whenever its last report is the
// committed epoch. A re-announce of an expired or left member is a rejoin:
// a fresh ramp with fresh health accounting.
func (g *Gateway) Announce(n Node, meta member.Meta, epoch uint64) (member.Entry, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.announceLocked(n, meta, epoch)
}

func (g *Gateway) announceLocked(n Node, meta member.Meta, epoch uint64) (member.Entry, error) {
	if n == nil || n.ID() == "" {
		return member.Entry{}, errors.New("gateway: node must have a non-empty ID")
	}
	id := n.ID()
	s, known := g.members[id]
	if known && s.rec.State.Live() {
		if meta.Static {
			return member.Entry{}, fmt.Errorf("gateway: duplicate node id %q", id)
		}
		return g.renewLocked(s, meta, epoch)
	}
	// First sight or a new incarnation: a fresh record, so fresh health
	// accounting too.
	rec, err := g.rules.Join(meta)
	if err != nil {
		return member.Entry{}, err
	}
	s = &shard{node: n, id: id, rec: rec, epoch: epoch}
	g.members[id] = s
	if !meta.Static {
		g.m[cLeasesGranted].Add(1)
		if known {
			g.m[cRejoins].Add(1)
		}
	}
	g.rebuildLocked()
	return g.rules.Entry(id, &s.rec), nil
}

// Renew extends a leased member's lease (one heartbeat), recording the epoch
// it reports and advancing the slow-start ramp. Unknown (or expired) members
// get member.ErrUnknown and must re-announce.
func (g *Gateway) Renew(id string, epoch uint64) (member.Entry, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.members[id]
	if s == nil {
		return member.Entry{}, member.ErrUnknown
	}
	return g.renewLocked(s, member.Meta{}, epoch)
}

func (g *Gateway) renewLocked(s *shard, meta member.Meta, epoch uint64) (member.Entry, error) {
	if err := g.rules.Renew(&s.rec, meta); err != nil {
		return member.Entry{}, err
	}
	s.epoch = epoch
	if !s.rec.Static {
		g.m[cRenewals].Add(1)
	}
	g.rebuildLocked()
	return g.rules.Entry(s.id, &s.rec), nil
}

// report records the epoch a member was observed at by the prober as its
// last report, exactly as its own heartbeat would, without touching its
// lease.
func (g *Gateway) report(s *shard, epoch uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s.epoch = epoch
	g.rebuildLocked()
}

// Leave deregisters a member gracefully: it comes off the ring immediately
// (new keys rehash to successors) while requests already in flight on it
// finish undisturbed. Reports whether the id was a live member.
func (g *Gateway) Leave(id string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.members[id]
	if s == nil || !g.rules.Leave(&s.rec) {
		return false
	}
	if !s.rec.Static {
		g.m[cGracefulLeaves].Add(1)
	}
	g.rebuildLocked()
	return true
}

// SweepMembership advances lease timers once: members past SuspectAfter
// turn suspect, members past LeaseTTL expire off the ring. The background
// sweeper calls this every SweepInterval; tests with an injected Clock call
// it directly.
func (g *Gateway) SweepMembership() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, s := range g.members {
		if g.rules.Sweep(&s.rec) {
			g.m[cLeaseExpirations].Add(1)
		}
	}
	g.rebuildLocked()
}

func (g *Gateway) sweeperLoop() {
	defer g.done.Done()
	interval := g.cfg.SweepInterval
	if interval <= 0 {
		interval = g.cfg.LeaseTTL / 4
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			g.SweepMembership()
		}
	}
}

// membersLocked returns the members whose lease state passes keep, sorted
// by id. Callers hold g.mu.
func (g *Gateway) membersLocked(keep func(member.State) bool) []*shard {
	out := make([]*shard, 0, len(g.members))
	for _, s := range g.members {
		if keep(s.rec.State) {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Nodes returns the currently routable member ids in ring-iteration
// (sorted) order.
func (g *Gateway) Nodes() []string {
	rs := g.ring.Load()
	ids := make([]string, len(rs.shards))
	for i, s := range rs.shards {
		ids[i] = s.id
	}
	return ids
}

// Key is one request's routing identity: the content digest when the body
// is digestable, otherwise the task name (so undigestable traffic for one
// task still lands on one shard's batch lanes). Task is read only when
// HasDigest is false.
type Key struct {
	Digest    uint64
	HasDigest bool
	Task      string
	// Tenant is the request's accounting identity. It deliberately does NOT
	// feed the placement hash: two tenants submitting the same frame must
	// land on the same shard's cache. It drives per-tenant attribution and
	// the monopolization guard (see tenant.go). Empty means the default
	// tenant.
	Tenant string
}

// KeyFor derives the routing key the same way the serve layer derives its
// result-cache digest, so a frame's gateway shard is exactly the shard
// whose cache can hold its result.
func KeyFor(req serve.Request) Key {
	if req.Image != nil {
		return Key{Digest: rcache.DigestImage(req.Image), HasDigest: true, Task: req.Task, Tenant: req.Tenant}
	}
	return Key{Task: req.Task, Tenant: req.Tenant}
}

func (k Key) hash() uint64 {
	if k.HasDigest {
		return mix64(k.Digest)
	}
	return mix64(fnvString(k.Task))
}

// ExecInfo reports how a request was routed.
type ExecInfo struct {
	// Node is the id of the member that produced the final outcome.
	Node string
	// Attempts is the total node attempts (1 = no failover).
	Attempts int
	// Hot marks a request routed through hot-key replication.
	Hot bool
	// Spilled marks a request diverted past its owner by bounded load.
	Spilled bool
}

// Execute routes key k to a node and runs do against it, handling hot-key
// replication, bounded-load spill, failure classification, ejection
// bookkeeping, and paced failover retries (per-attempt deadlines, jittered
// backoff with Retry-After honor, and the fleet-wide retry budget). It is
// the transport-agnostic core under Detect and under cmd/itask-gateway's
// body forwarding. The callback receives the gateway's hot verdict for the
// key so adapters can forward it downstream (X-Itask-Hot on proxied
// requests, serve.Request.Hot in-process): a shard told its content is
// fleet-hot pre-promotes the digest into its replica tier instead of
// waiting for its own detector — which only ever sees 1/HotReplicas of the
// replicated traffic — to trip.
func (g *Gateway) Execute(ctx context.Context, k Key, do func(ctx context.Context, n Node, hot bool) error) (ExecInfo, error) {
	rs := g.ring.Load()
	info := ExecInfo{}
	if len(rs.shards) == 0 {
		return info, ErrNoNodes
	}
	h := k.hash()
	if g.hot != nil && k.HasDigest {
		info.Hot, _ = g.hot.Record(k.Digest)
	}

	// Per-tenant accounting brackets the whole routed request, and the
	// monopolization guard reads it at entry: a tenant already holding more
	// than half the fleet's in-flight work — while anyone else is in flight
	// at all — is dominant, and its request pins to its ring owner instead
	// of recruiting hot replicas or spill slots (see tenant.go). Single-
	// tenant traffic (tenIn == totalIn) is never dominant, so untenanted
	// fleets keep full hot-key and bounded-load behavior.
	ts := g.tenants.get(k.Tenant)
	totalIn := g.inflightAll.Add(1)
	tenIn := ts.inflight.Add(1)
	defer func() {
		ts.inflight.Add(-1)
		g.inflightAll.Add(-1)
	}()
	dominant := totalIn >= dominanceMinInFlight && tenIn < totalIn && tenIn*2 > totalIn
	if dominant {
		ts.dominated.Add(1)
	}

	// Preference order: the owner and its successors, ejected members
	// dropped. If every member is ejected the full order is used anyway —
	// a possibly-dead node beats certain failure. The list and the tried
	// set live on the stack up to smallFleet members.
	var prefBuf, triedBuf [smallFleet]*shard
	prefs := rs.successors(prefBuf[:], h, len(rs.shards))
	now := time.Now().UnixNano()
	// Filtered in place: a member is written only when kept, so when none
	// is, prefs is still whole for the last resort.
	avail := prefs[:0]
	for _, s := range prefs {
		if !s.ejected(now) {
			avail = append(avail, s)
		}
	}
	if len(avail) == 0 {
		avail = prefs
	}

	s := g.choose(avail, &info, ts, dominant)
	tried := triedBuf[:0]
	var lastErr error
	for attempt := 0; attempt <= g.cfg.MaxRetries && s != nil; attempt++ {
		if err := ctx.Err(); err != nil {
			return info, err
		}
		info.Attempts = attempt + 1
		info.Node = s.id
		tried = append(tried, s)

		s.inflight.Add(1)
		err := g.attempt(ctx, s, do, info.Hot)
		s.inflight.Add(-1)

		switch Classify(err) {
		case ClassOK:
			s.consecFails.Store(0)
			s.served.Add(1)
			g.count(ts, cRouted)
			if info.Hot {
				g.count(ts, cHotRouted)
			}
			if !k.HasDigest {
				g.count(ts, cTaskRouted)
			}
			return info, nil
		case ClassRequest:
			// The node answered; the request itself is at fault. Do not
			// spread poison to a successor.
			s.consecFails.Store(0)
			g.count(ts, cRouted)
			return info, err
		case ClassOverload:
			s.failures.Add(1)
			lastErr = err
		case ClassNodeDown:
			s.failures.Add(1)
			g.noteDown(s)
			lastErr = err
		}
		// Failover: first untried member in preference order — paced by the
		// retry budget and the jittered backoff.
		s = nil
		for _, cand := range avail {
			if !containsShard(tried, cand) {
				s = cand
				break
			}
		}
		if s == nil || attempt >= g.cfg.MaxRetries {
			break
		}
		if !g.budget.Allow("", time.Now()) {
			g.count(ts, cBudgetDry)
			lastErr = fmt.Errorf("%w: %w", ErrRetryBudget, lastErr)
			break
		}
		g.count(ts, cRetries)
		if d := g.retryDelay(attempt, lastErr); d > 0 {
			if !sleepRetry(ctx, d) {
				return info, ctx.Err()
			}
		}
	}
	g.count(ts, cFailed)
	if lastErr == nil {
		lastErr = ErrNoNodes
	}
	return info, lastErr
}

// attempt runs one node attempt under the per-attempt deadline, carried by
// an attemptCtx that makes its timer only if the node waits. An attempt
// that dies on its own deadline — while the request as a whole still has
// time — is the shard's failure, not the request's: it reclassifies as
// ClassNodeDown so it fails over and counts toward ejection, which is what
// turns a blackholed (accepting but never answering) shard from a
// request-killer into a bounded detour.
func (g *Gateway) attempt(ctx context.Context, s *shard, do func(ctx context.Context, n Node, hot bool) error, hot bool) error {
	if g.cfg.AttemptTimeout <= 0 {
		return do(ctx, s.node, hot)
	}
	actx := newAttemptCtx(ctx, g.cfg.AttemptTimeout)
	defer actx.end()
	err := do(actx, s.node, hot)
	if err != nil && ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
		return &NodeError{
			Class: ClassNodeDown,
			Err:   fmt.Errorf("gateway: attempt on %s timed out after %v: %w", s.id, g.cfg.AttemptTimeout, err),
		}
	}
	return err
}

// choose picks the first node to try: power-of-two-choices across the hot
// replica set for hot keys, bounded-load owner-or-spill otherwise. A pinned
// (dominant-tenant) request skips both elastic paths and takes its ring
// owner straight: the spread capacity is reserved for the tenants that are
// not already holding most of the fleet.
func (g *Gateway) choose(avail []*shard, info *ExecInfo, ts *tenantStats, pinned bool) *shard {
	if len(avail) == 0 {
		return nil
	}
	if pinned {
		return avail[0]
	}
	if info.Hot && len(avail) >= 2 {
		set := avail
		if len(set) > g.cfg.HotReplicas {
			set = set[:g.cfg.HotReplicas]
		}
		// Rotate through adjacent pairs of the replica set: with R replicas
		// the pairs (0,1), (1,2), … (R-1,0) all occur, so every replica is
		// a candidate on a constant fraction of arrivals.
		seq := g.p2cSeq.Add(1)
		r := uint64(len(set))
		a := set[seq%r]
		b := set[(seq+1)%r]
		// Lower in-flight wins; ties go to a, whose rotating position makes
		// an idle replica set round-robin instead of herding on one member.
		if b.inflight.Load() < a.inflight.Load() {
			return b
		}
		return a
	}
	owner := avail[0]
	if g.cfg.LoadFactor > 0 && len(avail) > 1 {
		var total int64
		for _, s := range avail {
			total += s.inflight.Load()
		}
		cap64 := loadCap(g.cfg.LoadFactor, total, int64(len(avail)))
		if owner.inflight.Load() >= cap64 {
			least := owner
			for _, s := range avail[1:] {
				if s.inflight.Load() < cap64 {
					info.Spilled = true
					g.count(ts, cSpills)
					return s
				}
				if s.inflight.Load() < least.inflight.Load() {
					least = s
				}
			}
			if least != owner {
				info.Spilled = true
				g.count(ts, cSpills)
				return least
			}
		}
	}
	return owner
}

// loadCap is the bounded-load cap of consistent hashing with bounded
// loads (Mirrokni, Thorup and Zadimoghaddam, SODA 2018): ⌈c·(total+1)/n⌉,
// the fleet's in-flight requests plus the arriving one, averaged over the
// n shards and scaled by the load factor c. A shard already carrying the
// cap takes no more, so a cold fleet has cap ≥ 1.
func loadCap(c float64, total, n int64) int64 {
	return int64(math.Ceil(c * float64(total+1) / float64(n)))
}

// Result is a gateway-served detection outcome: the shard's serve result
// plus routing attribution.
type Result struct {
	serve.Result
	// Node is the shard that served the request.
	Node string
	// Attempts is 1 plus the number of failover retries taken.
	Attempts int
	// Hot marks the request as routed through hot-key replication.
	Hot bool
}

// Detect routes one request to its shard and executes it. Every node must
// implement DetectNode. The gateway's hot verdict rides the request as
// Request.Hot so the shard can pre-promote the digest in its replica tier.
func (g *Gateway) Detect(ctx context.Context, req serve.Request) (Result, error) {
	var res serve.Result
	info, err := g.Execute(ctx, KeyFor(req), func(ctx context.Context, n Node, hot bool) error {
		dn, ok := n.(DetectNode)
		if !ok {
			return &NodeError{Class: ClassRequest, Err: fmt.Errorf("gateway: node %s cannot serve Detect", n.ID())}
		}
		req := req
		req.Hot = hot
		r, derr := dn.Detect(ctx, req)
		if derr == nil {
			res = r
		}
		return derr
	})
	return Result{Result: res, Node: info.Node, Attempts: info.Attempts, Hot: info.Hot}, err
}

// CommittedEpoch is the content identity the last Propagate committed, 0
// before any.
func (g *Gateway) CommittedEpoch() uint64 { return g.committedEpoch.Load() }

// Snapshot returns the gateway's metrics and per-member status, including
// announced members that are not (or no longer) routable.
func (g *Gateway) Snapshot() Snapshot {
	snap := Snapshot{
		Routed:               g.m[cRouted].Load(),
		Failed:               g.m[cFailed].Load(),
		HotRouted:            g.m[cHotRouted].Load(),
		TaskRouted:           g.m[cTaskRouted].Load(),
		Spills:               g.m[cSpills].Load(),
		Retries:              g.m[cRetries].Load(),
		RetryBudgetExhausted: g.m[cBudgetDry].Load(),
		Ejections:            g.m[cEjections].Load(),
		EpochDrift:           g.m[cEpochDrift].Load(),
		Propagates:           g.m[cPropagates].Load(),
		LeasesGranted:        g.m[cLeasesGranted].Load(),
		LeaseRenewals:        g.m[cRenewals].Load(),
		LeaseExpirations:     g.m[cLeaseExpirations].Load(),
		Rejoins:              g.m[cRejoins].Load(),
		GracefulLeaves:       g.m[cGracefulLeaves].Load(),
		PerTenant:            g.tenants.snapshot(),
	}
	now := time.Now().UnixNano()
	g.mu.Lock()
	defer g.mu.Unlock()
	snap.CommittedEpoch = g.committedEpoch.Load()
	all := g.membersLocked(func(member.State) bool { return true })
	snap.Nodes = make([]NodeStatus, len(all))
	for i, s := range all {
		var weight float64
		if s.vnodes > 0 { // on the ring: routable but for ejection
			weight = g.rules.Weight(&s.rec)
		}
		snap.Nodes[i] = NodeStatus{
			ID:       s.id,
			State:    s.rec.State.String(),
			Weight:   weight,
			InFlight: s.inflight.Load(),
			Served:   s.served.Load(),
			Failures: s.failures.Load(),
			Ejected:  s.ejected(now),
			Lagging:  weight == 0 && s.rec.State.Live(),
			Epoch:    s.epoch,
		}
	}
	return snap
}
