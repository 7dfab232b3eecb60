package gateway_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"itask/internal/gateway"
	"itask/internal/serve"
)

// tenantCfg is a static, probe-free gateway configuration so tenant tests
// observe only the routing decisions they drive.
func tenantCfg() gateway.Config {
	cfg := gateway.DefaultConfig()
	cfg.ProbeInterval = 0
	cfg.LeaseTTL = 0
	cfg.SuspectAfter = 0
	cfg.LoadFactor = 0
	cfg.HotThreshold = 0
	cfg.RetryBackoff = 0
	return cfg
}

func tenantRow(snap gateway.Snapshot, tenant string) (gateway.TenantStatus, bool) {
	for _, ts := range snap.PerTenant {
		if ts.Tenant == tenant {
			return ts, true
		}
	}
	return gateway.TenantStatus{}, false
}

// Every Execute outcome lands in the right tenant's row: successes and
// request-faults count as routed, exhausted attempts as failed, and an
// unlabeled request books under the serve layer's default tenant.
func TestTenantAttributionInSnapshot(t *testing.T) {
	g, err := gateway.New(tenantCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for _, id := range []string{"n1", "n2"} {
		if err := g.AddNode(newFakeNode(id)); err != nil {
			t.Fatal(err)
		}
	}

	ok := func(context.Context, gateway.Node, bool) error { return nil }
	for i := 0; i < 2; i++ {
		if _, err := g.Execute(context.Background(), gateway.Key{Task: "patrol", Tenant: "a"}, ok); err != nil {
			t.Fatal(err)
		}
	}
	// A request-class failure is the tenant's own content at fault; the node
	// answered, so it still counts as routed.
	badContent := func(context.Context, gateway.Node, bool) error {
		return &gateway.NodeError{Class: gateway.ClassRequest, Err: errors.New("poison")}
	}
	if _, err := g.Execute(context.Background(), gateway.Key{Task: "patrol", Tenant: "b"}, badContent); err == nil {
		t.Fatal("request-class error swallowed")
	}
	if _, err := g.Execute(context.Background(), gateway.Key{Task: "patrol"}, ok); err != nil {
		t.Fatal(err)
	}
	// Every attempt down-classes: tenant c's request exhausts the fleet.
	down := func(context.Context, gateway.Node, bool) error {
		return &gateway.NodeError{Class: gateway.ClassNodeDown, Err: errors.New("refused")}
	}
	if _, err := g.Execute(context.Background(), gateway.Key{Task: "patrol", Tenant: "c"}, down); err == nil {
		t.Fatal("fleet-wide failure swallowed")
	}

	snap := g.Snapshot()
	want := map[string]struct{ routed, failed uint64 }{
		"a": {2, 0}, "b": {1, 0}, "c": {0, 1}, serve.DefaultTenant: {1, 0},
	}
	if len(snap.PerTenant) != len(want) {
		t.Fatalf("PerTenant rows = %+v, want %d tenants", snap.PerTenant, len(want))
	}
	for tenant, w := range want {
		row, found := tenantRow(snap, tenant)
		if !found {
			t.Fatalf("no PerTenant row for %q: %+v", tenant, snap.PerTenant)
		}
		if row.Routed != w.routed || row.Failed != w.failed {
			t.Errorf("tenant %s routed/failed = %d/%d, want %d/%d", tenant, row.Routed, row.Failed, w.routed, w.failed)
		}
		if row.InFlight != 0 {
			t.Errorf("tenant %s InFlight = %d after all requests returned", tenant, row.InFlight)
		}
	}
	// Rows come sorted by tenant id for stable /metricsz output.
	for i := 1; i < len(snap.PerTenant); i++ {
		if snap.PerTenant[i-1].Tenant >= snap.PerTenant[i].Tenant {
			t.Fatalf("PerTenant not sorted: %+v", snap.PerTenant)
		}
	}
}

// KeyFor carries the request's tenant for accounting without letting it
// touch placement: the same frame from two tenants must share one shard.
func TestKeyForCarriesTenant(t *testing.T) {
	req := serve.Request{Task: "patrol", Image: img(1), Tenant: "acme"}
	k := gateway.KeyFor(req)
	if k.Tenant != "acme" || !k.HasDigest {
		t.Fatalf("KeyFor = %+v, want digestable key with tenant acme", k)
	}
	other := req
	other.Tenant = "rival"
	if ko := gateway.KeyFor(other); ko.Digest != k.Digest {
		t.Fatalf("tenant changed the content digest: %d vs %d", ko.Digest, k.Digest)
	}
}

// A tenant holding most of the fleet's in-flight work loses the hot-replica
// spread: its requests pin to the ring owner while it stays dominant, and
// the spread returns once the flood drains.
func TestDominantTenantPinnedToOwner(t *testing.T) {
	cfg := tenantCfg()
	cfg.HotThreshold = 1
	cfg.HotReplicas = 2
	cfg.MaxRetries = 0
	g, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for _, id := range []string{"n1", "n2", "n3"} {
		if err := g.AddNode(newFakeNode(id)); err != nil {
			t.Fatal(err)
		}
	}

	hotKey := gateway.Key{Digest: 42, HasDigest: true, Task: "patrol", Tenant: "flood"}
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	var wg sync.WaitGroup
	hold := func(k gateway.Key) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = g.Execute(context.Background(), k, func(context.Context, gateway.Node, bool) error {
				started <- struct{}{}
				<-gate
				return nil
			})
		}()
	}
	// flood parks 7 requests in flight; one bystander keeps a second tenant
	// in flight (a lone tenant, however loaded, is never "dominant" — there
	// is no one to protect capacity for).
	for i := 0; i < 7; i++ {
		hold(hotKey)
	}
	hold(gateway.Key{Digest: 43, HasDigest: true, Task: "patrol", Tenant: "bystander"})
	for i := 0; i < 8; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("held requests never reached their nodes")
		}
	}

	// While dominant, every flood request for the hot digest lands on one
	// node — the digest's ring owner — instead of p2c-spreading.
	pinned := map[string]int{}
	for i := 0; i < 30; i++ {
		info, err := g.Execute(context.Background(), hotKey, func(context.Context, gateway.Node, bool) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		pinned[info.Node]++
	}
	if len(pinned) != 1 {
		t.Fatalf("dominant tenant spread across %v, want a single pinned owner", pinned)
	}
	if row, _ := tenantRow(g.Snapshot(), "flood"); row.Dominated < 30 {
		t.Errorf("flood Dominated = %d, want >= 30", row.Dominated)
	}
	if row, _ := tenantRow(g.Snapshot(), "bystander"); row.Dominated != 0 {
		t.Errorf("bystander Dominated = %d, want 0", row.Dominated)
	}

	close(gate)
	wg.Wait()

	// Flood drained: the same tenant's hot requests spread over the replica
	// set again (p2c pair rotation round-robins an idle fleet).
	spread := map[string]int{}
	for i := 0; i < 20; i++ {
		info, err := g.Execute(context.Background(), hotKey, func(context.Context, gateway.Node, bool) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		spread[info.Node]++
	}
	if len(spread) < 2 {
		t.Fatalf("post-drain hot routing used %v, want p2c spread over >= 2 replicas", spread)
	}
}

// The attribution table is bounded: past maxTenantRows distinct ids, new
// tenants aggregate under the overflow row instead of growing the table on
// hostile id churn.
func TestTenantTableBounded(t *testing.T) {
	g, err := gateway.New(tenantCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.AddNode(newFakeNode("n1")); err != nil {
		t.Fatal(err)
	}
	ok := func(context.Context, gateway.Node, bool) error { return nil }
	const churn = 1100
	for i := 0; i < churn; i++ {
		k := gateway.Key{Task: "patrol", Tenant: fmt.Sprintf("t%04d", i)}
		if _, err := g.Execute(context.Background(), k, ok); err != nil {
			t.Fatal(err)
		}
	}
	snap := g.Snapshot()
	if len(snap.PerTenant) > 1025 {
		t.Fatalf("tenant table grew to %d rows on id churn", len(snap.PerTenant))
	}
	over, found := tenantRow(snap, "~overflow")
	if !found || over.Routed == 0 {
		t.Fatalf("overflow row missing or empty: %+v (rows %d)", over, len(snap.PerTenant))
	}
	var total uint64
	for _, ts := range snap.PerTenant {
		total += ts.Routed
	}
	if total != churn {
		t.Fatalf("attributed %d requests across rows, want %d", total, churn)
	}
}
