package gateway

import (
	"context"
	"errors"
	"testing"
	"time"

	"itask/internal/serve"
)

// The fleet retry budget is a fair.Budget on one key; these are the
// gateway's promises about how its two Config fields size it.
func TestRetryBudgetSizing(t *testing.T) {
	budgetOf := func(rate float64, burst int) *Gateway {
		g, err := New(Config{VirtualNodes: 8, RetryBudgetRate: rate, RetryBudgetBurst: burst})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(g.Close)
		return g
	}
	now := time.Now()

	unlimited := budgetOf(0, 5)
	for i := 0; i < 100; i++ {
		if !unlimited.budget.Allow("", now) {
			t.Fatal("rate 0 must mean an unlimited budget")
		}
	}
	if !(&Gateway{}).budget.Allow("", now) {
		t.Fatal("a nil budget must be unlimited")
	}

	// A near-zero refill rate makes the burst depth the only thing that
	// matters within the test's lifetime.
	g := budgetOf(1e-9, 2)
	if !g.budget.Allow("", now) || !g.budget.Allow("", now) {
		t.Fatal("burst-depth takes must succeed")
	}
	if g.budget.Allow("", now) {
		t.Fatal("take from a dry bucket must fail")
	}

	// Refill restores tokens proportional to elapsed time, capped at burst.
	g = budgetOf(10, 2) // 1 token per 100ms
	for g.budget.Allow("", now) {
	}
	if !g.budget.Allow("", now.Add(150*time.Millisecond)) || g.budget.Allow("", now.Add(150*time.Millisecond)) {
		t.Fatal("150ms at 10/s must refill exactly one token")
	}
	later := now.Add(time.Hour)
	if !g.budget.Allow("", later) || !g.budget.Allow("", later) || g.budget.Allow("", later) {
		t.Fatal("a long idle must refill to the burst depth and no further")
	}

	// A rate without a burst is a bucket of depth 1.
	g = budgetOf(5, 0)
	if !g.budget.Allow("", now) || g.budget.Allow("", now) {
		t.Fatal("rate without burst must default to depth 1")
	}
}

func TestRetryDelayJitterAndRetryAfter(t *testing.T) {
	g := &Gateway{cfg: Config{RetryBackoff: 10 * time.Millisecond, RetryBackoffMax: 40 * time.Millisecond}}

	// Full jitter: attempt k draws uniform [0, min(base<<k, max)).
	for i := 0; i < 200; i++ {
		if d := g.retryDelay(0, nil); d < 0 || d >= 10*time.Millisecond {
			t.Fatalf("attempt-0 delay %v outside [0, 10ms)", d)
		}
		if d := g.retryDelay(30, nil); d < 0 || d >= 40*time.Millisecond {
			t.Fatalf("deep-attempt delay %v outside [0, max=40ms)", d)
		}
	}

	// Retry-After floors the delay, capped at RetryBackoffMax.
	hinted := &NodeError{Class: ClassOverload, RetryAfter: time.Second, Err: errors.New("429")}
	if d := g.retryDelay(0, hinted); d != 40*time.Millisecond {
		t.Fatalf("capped Retry-After delay = %v, want exactly max (40ms)", d)
	}
	small := &NodeError{Class: ClassOverload, RetryAfter: 25 * time.Millisecond, Err: errors.New("429")}
	if d := g.retryDelay(0, small); d < 25*time.Millisecond || d > 40*time.Millisecond {
		t.Fatalf("hinted delay = %v, want in [25ms, 40ms]", d)
	}

	// An open in-process breaker carries its own horizon.
	bo := &serve.BreakerOpenError{RetryAfter: 30 * time.Millisecond}
	if d := g.retryDelay(0, bo); d < 30*time.Millisecond {
		t.Fatalf("breaker delay = %v, want >= its Retry-After (30ms)", d)
	}

	// All-zero config: no pause at all (PR 6 behavior).
	g0 := &Gateway{}
	if d := g0.retryDelay(3, errors.New("x")); d != 0 {
		t.Fatalf("unconfigured delay = %v, want 0", d)
	}
}

func TestSleepRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if sleepRetry(ctx, time.Minute) {
		t.Fatal("cancelled ctx must abort the pause")
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancelled pause took too long")
	}
	if !sleepRetry(context.Background(), 0) || !sleepRetry(context.Background(), time.Microsecond) {
		t.Fatal("tiny pauses must complete")
	}
}

// A warming shard's vnode point set is a prefix of its full-weight set, so
// every key it owns mid-ramp is a key it will keep at full weight: the ramp
// only ever adds ranges, it never reshuffles them.
func TestRingRampMonotone(t *testing.T) {
	const full = 128
	others := testShards(5)
	warming := &shard{id: "warming", vnodes: full / 4}
	fleet := append(append([]*shard{}, others...), warming)
	rs4 := buildRing(fleet, full)
	warming.vnodes = full
	rs1 := buildRing(fleet, full)

	keys := sampleKeys(20000)
	atQuarter, kept := 0, 0
	for _, k := range keys {
		if rs4.owner(k).id != "warming" {
			continue
		}
		atQuarter++
		if rs1.owner(k).id == "warming" {
			kept++
		}
	}
	if atQuarter == 0 {
		t.Fatal("warming shard owned no keys at quarter weight")
	}
	if kept != atQuarter {
		t.Fatalf("ramp reshuffled: %d of %d quarter-weight keys lost at full weight", atQuarter-kept, atQuarter)
	}
	// And the quarter-weight share is roughly a quarter of the fair share.
	fair := len(keys) / 6
	if atQuarter > fair/2 {
		t.Fatalf("quarter-weight shard owns %d keys, expected well under half its fair share %d", atQuarter, fair)
	}
}
