package gateway

import (
	"sort"
	"sync"
	"sync/atomic"

	"itask/internal/serve"
)

// tenant.go: per-tenant routing attribution and the monopolization guard.
//
// The gateway routes by content, not by tenant — a frame's digest decides its
// shard so the fleet's caches compose — but it still accounts every request
// to a tenant and watches for one tenant monopolizing the fleet's elastic
// capacity. Hot-key replication and bounded-load spill exist to absorb
// organic surges; a single tenant flooding hot content would otherwise
// recruit *every* replica and spill slot for itself, turning the fairness
// machinery on each shard (internal/fair) into a fight the flood already
// won upstream. The guard: a tenant holding more than half the fleet's
// in-flight work while at least one other tenant is also in flight is
// "dominant" and loses the spread — its requests pin to their ring owner,
// no p2c hot replicas, no bounded-load spill — so the elastic capacity
// stays available to everyone else.

const (
	// maxTenantRows bounds the attribution table; past it, new tenants
	// aggregate under tenantOverflow rather than growing without bound on
	// hostile ids (the HTTP shell additionally rejects ids over 64 bytes).
	maxTenantRows = 1024
	// tenantOverflow collects tenants beyond maxTenantRows ("~" cannot
	// appear first in an id that sorts before real tenants' metrics rows).
	tenantOverflow = "~overflow"
	// dominanceMinInFlight is the evidence floor: below this many total
	// in-flight requests a majority is noise, not monopolization.
	dominanceMinInFlight = 4
)

// tenantStats is one tenant's routing row. inflight is the tenant's
// currently-executing requests fleet-wide (the dominance signal); c is the
// tenant's share of the gateway's counters (see Gateway.count).
type tenantStats struct {
	inflight  atomic.Int64
	c         counters
	dominated atomic.Uint64
}

// tenantTable maps tenant id → stats, bounded at maxTenantRows.
type tenantTable struct {
	m sync.Map // string → *tenantStats
	n atomic.Int64
}

// get returns the stats row for a tenant, normalizing "" to the serve
// layer's default tenant and folding table overflow into one shared row.
func (t *tenantTable) get(tenant string) *tenantStats {
	if tenant == "" {
		tenant = serve.DefaultTenant
	}
	if v, ok := t.m.Load(tenant); ok {
		return v.(*tenantStats)
	}
	if t.n.Load() >= maxTenantRows {
		tenant = tenantOverflow
		if v, ok := t.m.Load(tenant); ok {
			return v.(*tenantStats)
		}
	}
	v, loaded := t.m.LoadOrStore(tenant, &tenantStats{})
	if !loaded {
		t.n.Add(1)
	}
	return v.(*tenantStats)
}

// TenantStatus is one tenant's routing view, shaped for /metricsz.
type TenantStatus struct {
	Tenant   string `json:"tenant"`
	InFlight int64  `json:"in_flight,omitempty"`
	// Routed counts requests that reached a backend and got an answer
	// (including the backend's own verdicts about request content); Failed
	// counts requests that exhausted every attempt.
	Routed uint64 `json:"routed"`
	Failed uint64 `json:"failed,omitempty"`
	// HotRouted and Spilled are the tenant's share of the global hot_routed
	// and spills (a spill counts when it is decided, succeed or not).
	HotRouted uint64 `json:"hot_routed,omitempty"`
	Spilled   uint64 `json:"spilled,omitempty"`
	// Dominated counts requests routed while this tenant held more than
	// half the fleet's in-flight work: each was pinned to its ring owner,
	// denied hot-replica spread and bounded-load spill.
	Dominated uint64 `json:"dominated,omitempty"`
}

// snapshot renders the table sorted by tenant id.
func (t *tenantTable) snapshot() []TenantStatus {
	var out []TenantStatus
	t.m.Range(func(k, v any) bool {
		ts := v.(*tenantStats)
		out = append(out, TenantStatus{
			Tenant:    k.(string),
			InFlight:  ts.inflight.Load(),
			Routed:    ts.c[cRouted].Load(),
			Failed:    ts.c[cFailed].Load(),
			HotRouted: ts.c[cHotRouted].Load(),
			Spilled:   ts.c[cSpills].Load(),
			Dominated: ts.dominated.Load(),
		})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
