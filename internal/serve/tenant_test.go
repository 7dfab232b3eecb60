package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"itask/internal/chaos"
	"itask/internal/tensor"
)

// A request without a tenant is the default tenant; one with a tenant keeps
// it through to the Result and the per-tenant metrics.
func TestTenantNormalizationAndAttribution(t *testing.T) {
	fb := newFakeBackend()
	cfg := DefaultConfig()
	s := newTestServer(t, fb, cfg)

	res, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tenant != DefaultTenant {
		t.Errorf("unattributed request Tenant = %q, want %q", res.Tenant, DefaultTenant)
	}
	res, err = s.Detect(context.Background(), Request{Task: "patrol", Image: testImage(), Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tenant != "acme" {
		t.Errorf("Tenant = %q, want acme", res.Tenant)
	}

	snap := s.Snapshot()
	if len(snap.PerTenant) != 2 {
		t.Fatalf("PerTenant = %+v, want rows for default and acme", snap.PerTenant)
	}
	byTenant := map[string]TenantStats{}
	for _, ts := range snap.PerTenant {
		byTenant[ts.Tenant] = ts
	}
	for _, tenant := range []string{DefaultTenant, "acme"} {
		ts := byTenant[tenant]
		if ts.Completed != 1 {
			t.Errorf("tenant %s Completed = %d, want 1", tenant, ts.Completed)
		}
		if ts.LatencyP99US <= 0 {
			t.Errorf("tenant %s p99 not recorded", tenant)
		}
	}
}

// An over-budget tenant is refused with a *TenantBudgetError carrying a
// Retry-After hint; other tenants' buckets are untouched.
func TestTenantBudgetRejection(t *testing.T) {
	fb := newFakeBackend()
	cfg := DefaultConfig()
	cfg.TenantRate = 0.001 // effectively no refill within the test
	cfg.TenantBurst = 2
	s := newTestServer(t, fb, cfg)

	for i := 0; i < 2; i++ {
		if _, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage(), Tenant: "noisy"}); err != nil {
			t.Fatalf("burst request %d: %v", i, err)
		}
	}
	_, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage(), Tenant: "noisy"})
	if !errors.Is(err, ErrTenantBudget) {
		t.Fatalf("over-budget err = %v, want ErrTenantBudget", err)
	}
	var tbe *TenantBudgetError
	if !errors.As(err, &tbe) || tbe.Tenant != "noisy" || tbe.RetryAfter <= 0 {
		t.Fatalf("budget error = %#v, want tenant noisy with positive RetryAfter", tbe)
	}
	// The quiet tenant still has its full burst.
	if _, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage(), Tenant: "quiet"}); err != nil {
		t.Fatalf("quiet tenant rejected after noisy's overrun: %v", err)
	}
	snap := s.Snapshot()
	if snap.RejectedBudget != 1 {
		t.Errorf("RejectedBudget = %d, want 1", snap.RejectedBudget)
	}
	for _, ts := range snap.PerTenant {
		if ts.Tenant == "noisy" && ts.Rejected != 1 {
			t.Errorf("noisy Rejected = %d, want 1", ts.Rejected)
		}
		if ts.Tenant == "quiet" && ts.Rejected != 0 {
			t.Errorf("quiet Rejected = %d, want 0", ts.Rejected)
		}
	}
}

// The weighted queue-share guard: with two configured tenants, a flooding
// tenant is capped at its share of QueueCap while the other tenant's
// reserved slots still admit.
func TestTenantQueueShareGuard(t *testing.T) {
	gb := chaos.Wrap(newFakeBackend(), chaos.Config{})
	cfg := Config{
		Workers: 1, QueueCap: 32,
		TenantWeights: map[string]int{"flood": 1, "steady": 1},
	}
	s := newTestServer(t, gb, cfg)
	parkWorkers(t, s, gb, "patrol") // nothing drains while flood fills its share

	admitted, full := 0, 0
	for i := 0; i < cfg.QueueCap; i++ {
		_, err := s.Submit(Request{Task: "patrol", Image: testImage(), Tenant: "flood"})
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, ErrQueueFull):
			full++
		default:
			t.Fatalf("unexpected admission error: %v", err)
		}
	}
	if admitted != cfg.QueueCap/2 || full != cfg.QueueCap/2 {
		t.Fatalf("flood admitted %d and was refused %d times, want its half of QueueCap %d and the rest refused", admitted, full, cfg.QueueCap)
	}
	// steady must still have room in its reserved half.
	if _, err := s.Submit(Request{Task: "patrol", Image: testImage(), Tenant: "steady"}); err != nil {
		t.Fatalf("steady tenant rejected while flood is capped: %v", err)
	}
	if snap := s.Snapshot(); snap.RejectedShare == 0 {
		t.Errorf("RejectedShare = 0 after flood capping; snapshot %+v", snap)
	}
}

// poisonOnceBackend panics on every request while armed, then succeeds.
type poisonOnceBackend struct {
	*fakeBackend
	armed atomic.Bool
}

func (b *poisonOnceBackend) DetectBatch(variant, task string, imgs []*tensor.Tensor) ([]any, string, error) {
	if b.armed.CompareAndSwap(true, false) {
		panic("poison kernel")
	}
	return b.fakeBackend.DetectBatch(variant, task, imgs)
}

// Quarantine verdicts are tenant-scoped: tenant A's poison mark refuses
// A's retries with ErrQuarantined but tenant B executes the same content
// fresh (and succeeds, the kernel having recovered).
func TestQuarantineScopedPerTenant(t *testing.T) {
	b := &poisonOnceBackend{fakeBackend: newFakeBackend()}
	b.armed.Store(true)
	cfg := Config{
		Workers: 1, QueueCap: 16,
		CacheBytes: 1 << 20, NegativeTTL: time.Minute,
	}
	s := newTestServer(t, b, cfg)

	img := testImage()
	_, err := s.Detect(context.Background(), Request{Task: "patrol", Image: img, Tenant: "a"})
	if !errors.Is(err, ErrBackendPanic) {
		t.Fatalf("poison execution err = %v, want ErrBackendPanic", err)
	}
	// A's identical content is refused from A's negative entry.
	_, err = s.Detect(context.Background(), Request{Task: "patrol", Image: img, Tenant: "a"})
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("tenant a retry err = %v, want ErrQuarantined", err)
	}
	// B is not blinded by A's verdict: same digest, fresh execution.
	res, err := s.Detect(context.Background(), Request{Task: "patrol", Image: img, Tenant: "b"})
	if err != nil {
		t.Fatalf("tenant b blinded by tenant a's quarantine: %v", err)
	}
	if res.Tenant != "b" || res.Cached {
		t.Fatalf("tenant b result = %+v, want fresh execution attributed to b", res)
	}
	// A is still quarantined even though B's success filled the positive
	// cache for the digest (the negative probe runs before the cache).
	_, err = s.Detect(context.Background(), Request{Task: "patrol", Image: img, Tenant: "a"})
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("tenant a post-b err = %v, want ErrQuarantined until TTL", err)
	}
}

// Under saturation, tenants sharing the queue receive throughput
// proportional to their configured weights, within ±15%.
func TestWeightedTenantsShareThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation run")
	}
	fb := newFakeBackend()
	fb.delay = 2 * time.Millisecond // per execution: throughput == executions served
	weights := map[string]int{"bronze": 1, "silver": 2, "gold": 4}
	cfg := Config{
		Workers: 1, QueueCap: 64,
		TenantWeights: weights,
	}
	s := newTestServer(t, fb, cfg)

	// Open-loop enough to keep every tenant's subqueue backlogged: each
	// tenant runs far more submitters than its queue share, so the DRR
	// dequeue — not caller concurrency — decides who gets served.
	var stop atomic.Bool
	served := sync.Map{}
	var wg sync.WaitGroup
	for tenant := range weights {
		count := &atomic.Int64{}
		served.Store(tenant, count)
		for g := 0; g < 24; g++ {
			wg.Add(1)
			go func(tenant string, count *atomic.Int64) {
				defer wg.Done()
				for !stop.Load() {
					_, err := s.Detect(context.Background(), Request{Task: "patrol", Image: testImage(), Tenant: tenant})
					if err == nil {
						count.Add(1)
					} else if errors.Is(err, ErrQueueFull) {
						time.Sleep(200 * time.Microsecond) // queue-share cap hit; let it drain
					} else {
						t.Errorf("tenant %s: %v", tenant, err)
						return
					}
				}
			}(tenant, count)
		}
	}
	time.Sleep(1200 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	total := 0.0
	counts := map[string]float64{}
	for tenant := range weights {
		c, _ := served.Load(tenant)
		counts[tenant] = float64(c.(*atomic.Int64).Load())
		total += counts[tenant]
	}
	if total < 100 {
		t.Fatalf("only %.0f completions; saturation run too small to judge", total)
	}
	for tenant, w := range weights {
		got := counts[tenant] / total
		want := float64(w) / 7.0
		t.Logf("tenant %s: %0.f completions, share %.3f (want %.3f)", tenant, counts[tenant], got, want)
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("tenant %s served share %.3f, want %.3f +-15%% (counts %v)", tenant, got, want, counts)
		}
	}
}
