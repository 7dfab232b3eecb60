package gateway

import "sync/atomic"

// metrics.go: the gateway's counters — one flat array of atomics for the
// fleet total and one of the same shape per tenant row (tenant.go).

type counterID int

const (
	cRouted           counterID = iota // requests that reached a node
	cHotRouted                         // requests routed via hot-key replication
	cTaskRouted                        // undigestable requests routed by task key
	cSpills                            // bounded-load spills past the owner
	cRetries                           // failover retries onto a successor
	cBudgetDry                         // retries wanted but denied by the retry budget
	cFailed                            // requests that exhausted their attempts
	cEjections                         // members ejected by health accounting
	cEpochDrift                        // members that fell off the ring for their epoch
	cPropagates                        // cluster-wide registry changes propagated
	cLeasesGranted                     // announces that granted a lease: first joins and rejoins, never static seeds
	cRenewals                          // lease extensions (heartbeats and announce-as-renew)
	cLeaseExpirations                  // leases that lapsed without renewal
	cRejoins                           // announces that revived an expired or left member
	cGracefulLeaves                    // explicit deregistrations
	numCounters
)

type counters [numCounters]atomic.Uint64

// count adds one to c in the fleet total and in the tenant's row, so for
// every counter a request moves the rows sum to the total.
func (g *Gateway) count(ts *tenantStats, c counterID) {
	g.m[c].Add(1)
	ts.c[c].Add(1)
}

// Snapshot is the gateway's observable state, shaped for /metricsz.
type Snapshot struct {
	// Routed counts requests that reached a backend (including retried
	// ones once); Failed counts requests that exhausted every attempt.
	Routed uint64 `json:"routed"`
	Failed uint64 `json:"failed,omitempty"`
	// HotRouted counts requests served through hot-key replication,
	// TaskRouted requests routed by task key because they carried no
	// digestable image.
	HotRouted  uint64 `json:"hot_routed,omitempty"`
	TaskRouted uint64 `json:"task_routed,omitempty"`
	// Spills counts bounded-load diversions past a saturated owner;
	// Retries counts failover attempts onto a successor shard;
	// RetryBudgetExhausted counts retries that were wanted but denied by
	// the fleet-wide token-bucket budget (the request failed with its last
	// shard error instead of amplifying).
	Spills               uint64 `json:"spills,omitempty"`
	Retries              uint64 `json:"retries,omitempty"`
	RetryBudgetExhausted uint64 `json:"retry_budget_exhausted,omitempty"`
	// Ejections counts health ejections; EpochDrift counts live members
	// that fell off the ring because their epoch left the committed one.
	Ejections  uint64 `json:"ejections,omitempty"`
	EpochDrift uint64 `json:"epoch_drift,omitempty"`
	// Propagates counts cluster-wide registry changes; CommittedEpoch is
	// the content identity the last one committed (0: none yet).
	Propagates     uint64 `json:"propagates,omitempty"`
	CommittedEpoch uint64 `json:"committed_epoch"`

	// Membership lifecycle counters: leases granted
	// to announcing shards, heartbeat renewals, leases lost to missed
	// renewals, expired/left members that announced again, and graceful
	// deregistrations.
	LeasesGranted    uint64 `json:"leases_granted,omitempty"`
	LeaseRenewals    uint64 `json:"lease_renewals,omitempty"`
	LeaseExpirations uint64 `json:"lease_expirations,omitempty"`
	Rejoins          uint64 `json:"rejoins,omitempty"`
	GracefulLeaves   uint64 `json:"graceful_leaves,omitempty"`

	Nodes []NodeStatus `json:"nodes"`

	// PerTenant is routing attribution by tenant (sorted by tenant id):
	// which tenants the fleet is serving, who is failing, and who has been
	// pinned by the monopolization guard (see tenant.go).
	PerTenant []TenantStatus `json:"per_tenant,omitempty"`
}

// NodeStatus is one member's routing view.
type NodeStatus struct {
	ID string `json:"id"`
	// State is the lease state (warming, active, suspect, expired, left);
	// Weight is the slow-start routing weight in (0, 1], 0 off the ring for
	// its lease or for its epoch; Lagging marks a live lease whose last
	// reported Epoch is not the committed one.
	State    string  `json:"state,omitempty"`
	Weight   float64 `json:"weight,omitempty"`
	InFlight int64   `json:"in_flight"`
	Served   uint64  `json:"served"`
	Failures uint64  `json:"failures,omitempty"`
	Ejected  bool    `json:"ejected,omitempty"`
	Lagging  bool    `json:"lagging,omitempty"`
	Epoch    uint64  `json:"epoch,omitempty"`
}
