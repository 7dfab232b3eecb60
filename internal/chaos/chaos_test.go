package chaos_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"itask/internal/chaos"
	"itask/internal/serve"
	"itask/internal/tensor"
)

// mkImage builds a small deterministic image whose content (and therefore
// poison verdict) is a pure function of i.
func mkImage(i int) *tensor.Tensor {
	img := tensor.New(4)
	for j := range img.Data {
		img.Data[j] = float32(i)*4 + float32(j)
	}
	return img
}

// cleanImage returns an image that is NOT poison under b, nudging the
// content deterministically until the hash clears the threshold.
func cleanImage(t *testing.T, b *chaos.Backend, i int) *tensor.Tensor {
	t.Helper()
	img := mkImage(1_000_000 + i)
	for n := 0; b.IsPoison(img); n++ {
		if n > 1000 {
			t.Fatal("could not find a clean image in 1000 nudges")
		}
		img.Data[0]++
	}
	return img
}

func newFixed() *chaos.Fixed {
	return chaos.NewFixed(map[string]string{
		"patrol":  "patrol-student",
		"inspect": "gen",
	}, "gen")
}

func TestIsPoisonDeterministic(t *testing.T) {
	img := mkImage(7)
	first := chaos.IsPoison(42, 0.5, img)
	for i := 0; i < 10; i++ {
		if chaos.IsPoison(42, 0.5, img) != first {
			t.Fatal("IsPoison not stable across calls")
		}
	}
	if chaos.IsPoison(42, 0, img) {
		t.Error("rate 0 should never be poison")
	}
	if !chaos.IsPoison(42, 1, img) {
		t.Error("rate 1 should always be poison")
	}
	if chaos.IsPoison(42, 0.5, nil) {
		t.Error("nil image should never be poison")
	}
	// The seed matters: over many images, two seeds must disagree
	// somewhere.
	same := true
	for i := 0; i < 256 && same; i++ {
		im := mkImage(i)
		same = chaos.IsPoison(1, 0.5, im) == chaos.IsPoison(2, 0.5, im)
	}
	if same {
		t.Error("seeds 1 and 2 agree on 256 images; seed not mixed in")
	}
}

func TestBreakAndHealForceFaults(t *testing.T) {
	b := chaos.Wrap(newFixed(), chaos.Config{Seed: 1})
	imgs := []*tensor.Tensor{mkImage(0)}

	b.Break("patrol-student", chaos.FaultError)
	if _, _, err := b.DetectBatch("patrol-student", "patrol", imgs); err == nil {
		t.Fatal("forced error mode returned nil error")
	}
	// Other variants stay healthy.
	if _, _, err := b.DetectBatch("gen", "patrol", imgs); err != nil {
		t.Fatalf("unbroken variant errored: %v", err)
	}

	b.Break("patrol-student", chaos.FaultPanic)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("forced panic mode did not panic")
			}
		}()
		b.DetectBatch("patrol-student", "patrol", imgs)
	}()

	b.Heal("patrol-student")
	if _, _, err := b.DetectBatch("patrol-student", "patrol", imgs); err != nil {
		t.Fatalf("healed variant errored: %v", err)
	}
	st := b.Stats()
	if st.ForcedFaults != 2 {
		t.Errorf("ForcedFaults = %d, want 2", st.ForcedFaults)
	}
	if st.Executions != 4 {
		t.Errorf("Executions = %d, want 4", st.Executions)
	}
}

func TestPoisonBatchPanicsAndIsCounted(t *testing.T) {
	b := chaos.Wrap(newFixed(), chaos.Config{Seed: 9, PanicRate: 1})
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("poison batch did not panic")
			}
			if !strings.Contains(r.(string), "poison") {
				t.Errorf("panic value %q does not name the poison", r)
			}
		}()
		b.DetectBatch("gen", "patrol", []*tensor.Tensor{mkImage(0)})
	}()
	if st := b.Stats(); st.PoisonPanics != 1 {
		t.Errorf("PoisonPanics = %d, want 1", st.PoisonPanics)
	}
}

func TestCorruptionTruncatesPayloads(t *testing.T) {
	b := chaos.Wrap(newFixed(), chaos.Config{Seed: 3, CorruptRate: 1})
	imgs := []*tensor.Tensor{mkImage(0), mkImage(1), mkImage(2)}
	payloads, _, err := b.DetectBatch("gen", "patrol", imgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != len(imgs)-1 {
		t.Errorf("corrupted payload count = %d, want %d", len(payloads), len(imgs)-1)
	}
	if st := b.Stats(); st.Corruptions != 1 {
		t.Errorf("Corruptions = %d, want 1", st.Corruptions)
	}
}

// Park holds exactly the executions it was asked to, until release; a
// parked execution whose context ends leaves with the context's error.
func TestParkHoldsExecutionsUntilRelease(t *testing.T) {
	b := chaos.Wrap(newFixed(), chaos.Config{})
	imgs := []*tensor.Tensor{mkImage(0)}
	results := make(chan error, 2)
	release := b.Park(2, func() {
		go func() {
			_, _, err := b.DetectBatch("patrol-student", "patrol", imgs)
			results <- err
		}()
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := b.DetectBatchContext(ctx, "patrol-student", "patrol", imgs); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled execution at the gate: err = %v, want context.Canceled", err)
	}
	select {
	case err := <-results:
		t.Fatalf("an execution passed the closed gate (err %v)", err)
	default:
	}
	if got := b.Stats().Executions; got != 0 {
		t.Errorf("Executions = %d behind the gate, want 0", got)
	}
	release()
	release() // harmless
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Errorf("released execution failed: %v", err)
		}
	}
	if _, _, err := b.DetectBatch("patrol-student", "patrol", imgs); err != nil {
		t.Errorf("execution after release: %v", err)
	}
}

func TestOptionalInterfaceDelegation(t *testing.T) {
	fixed := newFixed()
	b := chaos.Wrap(fixed, chaos.Config{})
	if v, err := b.RouteFallback("patrol"); err != nil || v != "gen" {
		t.Errorf("RouteFallback = %q, %v; want gen", v, err)
	}
	b.EvictVariant("patrol-student")
	if fixed.Evictions("patrol-student") != 1 {
		t.Error("eviction not delegated to inner backend")
	}
	if b.Stats().Evictions != 1 {
		t.Error("eviction not counted")
	}
	// Fixed validates nothing and has no cache; the wrapper must not
	// invent either.
	if err := b.ValidateImage(mkImage(0)); err != nil {
		t.Errorf("ValidateImage on non-validating inner: %v", err)
	}
	if cs := b.CacheStats(); cs.Hits+cs.Misses != 0 {
		t.Errorf("CacheStats on cache-less inner: %+v", cs)
	}
}

func TestHangTripsServeWatchdog(t *testing.T) {
	fixed := newFixed()
	b := chaos.Wrap(fixed, chaos.Config{Seed: 5, HangFor: 300 * time.Millisecond})
	b.Break("patrol-student", chaos.FaultHang)
	srv, err := serve.New(b, serve.Config{
		Workers: 1, QueueCap: 8,
		Watchdog: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	_, err = srv.Detect(context.Background(), serve.Request{Task: "patrol", Image: cleanImage(t, b, 0)})
	if !errors.Is(err, serve.ErrWatchdog) {
		t.Fatalf("hung execution returned %v, want ErrWatchdog", err)
	}
	if snap := srv.Snapshot(); snap.WatchdogTimeouts == 0 {
		t.Error("watchdog timeout not counted")
	}
}

func TestLatencyInjectionTripsSLOAndDegrades(t *testing.T) {
	fixed := newFixed()
	// Every execution sleeps 30ms against a 5ms SLO: two breaches trip the
	// patrol lane open and the third request degrades to the fallback.
	b := chaos.Wrap(fixed, chaos.Config{Seed: 5, LatencyRate: 1, Latency: 30 * time.Millisecond})
	srv, err := serve.New(b, serve.Config{
		Workers: 1, QueueCap: 8,
		LatencySLO:        5 * time.Millisecond,
		BreakerThreshold:  2,
		BreakerBackoff:    time.Minute,
		BreakerMaxBackoff: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := srv.Detect(ctx, serve.Request{Task: "patrol", Image: cleanImage(t, b, i)}); err != nil {
			t.Fatalf("slow-but-successful request %d errored: %v", i, err)
		}
	}
	res, err := srv.Detect(ctx, serve.Request{Task: "patrol", Image: cleanImage(t, b, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != serve.DegradedBreakerOpen || res.Model != "gen" {
		t.Errorf("post-SLO-trip request: model=%q degraded=%q, want gen/breaker-open", res.Model, res.Degraded)
	}
	snap := srv.Snapshot()
	if snap.SLOBreaches < 2 {
		t.Errorf("SLOBreaches = %d, want >= 2", snap.SLOBreaches)
	}
	if snap.BreakerOpens == 0 {
		t.Error("breaker did not open on SLO breaches")
	}
}

// TestChaosAcceptance is the PR's acceptance scenario end to end. Phase 1:
// a 64-request run against a backend whose requests are poison with
// probability 10% (deterministically, keyed by image content) completes
// with exactly the poison requests failing and everything else succeeding —
// no crash, no collateral failures. Phase 2: the task-specific variant is
// broken outright; its lane's breaker trips open and subsequent traffic is
// observably served by the quantized fallback, visible in the /metricsz
// snapshot counters.
func TestChaosAcceptance(t *testing.T) {
	fixed := newFixed()
	b := chaos.Wrap(fixed, chaos.Config{Seed: 42, PanicRate: 0.10})
	cfg := serve.Config{
		Workers:  2,
		QueueCap: 128,
		Watchdog: 5 * time.Second,
		// High enough that phase 1's poison panics (interleaved with the
		// successes of their clean neighbours) never trip it, low enough
		// that phase 2 trips it in a few bursts.
		BreakerThreshold:  20,
		BreakerBackoff:    5 * time.Minute, // stays open for the rest of the test
		BreakerMaxBackoff: 5 * time.Minute,
	}
	srv, err := serve.New(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	// Phase 1: 64 requests, deterministic ~10% poison.
	const n = 64
	imgs := make([]*tensor.Tensor, n)
	poison := make([]bool, n)
	poisonCount := 0
	for i := range imgs {
		imgs[i] = mkImage(i)
		poison[i] = b.IsPoison(imgs[i])
		if poison[i] {
			poisonCount++
		}
	}
	if poisonCount < 2 || poisonCount > 16 {
		t.Fatalf("seed 42 yields %d/64 poison; pick a seed near the 10%% rate", poisonCount)
	}
	t.Logf("poison set: %d/%d requests", poisonCount, n)

	// Park holds both workers inside their first request while the other 62
	// queue, so that the poison waits among clean requests.
	outs := make([]<-chan serve.Outcome, 0, n)
	submit := func() {
		i := len(outs)
		ch, err := srv.Submit(serve.Request{Task: "patrol", Image: imgs[i]})
		if err != nil {
			t.Fatalf("submit %d refused: %v", i, err)
		}
		outs = append(outs, ch)
	}
	release := b.Park(cfg.Workers, submit)
	for len(outs) < n {
		submit()
	}
	release()
	for i, ch := range outs {
		out := <-ch
		if poison[i] {
			if !errors.Is(out.Err, serve.ErrBackendPanic) {
				t.Errorf("poison request %d: err = %v, want ErrBackendPanic", i, out.Err)
			}
			var pe *serve.PanicError
			if !errors.As(out.Err, &pe) || len(pe.Stack) == 0 {
				t.Errorf("poison request %d: error lacks the captured panic stack", i)
			}
		} else {
			if out.Err != nil {
				t.Errorf("clean request %d failed: %v (a poison failure leaked onto a neighbour)", i, out.Err)
			} else if out.Res.Degraded != "" {
				t.Errorf("clean request %d served degraded (%s); breaker tripped during phase 1", i, out.Res.Degraded)
			}
		}
	}

	phase1 := srv.Snapshot()
	if phase1.Completed != uint64(n-poisonCount) {
		t.Errorf("Completed = %d, want %d", phase1.Completed, n-poisonCount)
	}
	if phase1.Failed != uint64(poisonCount) {
		t.Errorf("Failed = %d, want %d", phase1.Failed, poisonCount)
	}
	if phase1.Quarantined != uint64(poisonCount) {
		t.Errorf("Quarantined = %d, want %d (every poison failed alone)",
			phase1.Quarantined, poisonCount)
	}
	if phase1.PanicsRecovered < uint64(poisonCount) {
		t.Errorf("PanicsRecovered = %d, want >= %d", phase1.PanicsRecovered, poisonCount)
	}
	if phase1.VariantEvictions == 0 || fixed.Evictions("patrol-student") == 0 {
		t.Error("panicking variant's cached weights were never evicted")
	}
	if phase1.BreakerOpens != 0 {
		t.Errorf("breaker opened %d times during phase 1; threshold too tight", phase1.BreakerOpens)
	}

	// Phase 2: break the student outright and hammer its lane until the
	// breaker opens; traffic must then be served degraded on the fallback.
	b.Break("patrol-student", chaos.FaultError)
	const burstSize = 8
	var degradedRes *serve.Result
	for burst := 0; burst < 12 && degradedRes == nil; burst++ {
		chans := make([]<-chan serve.Outcome, 0, burstSize)
		for i := 0; i < burstSize; i++ {
			ch, err := srv.Submit(serve.Request{Task: "patrol", Image: cleanImage(t, b, burst*burstSize+i)})
			if err != nil {
				t.Fatalf("phase-2 submit refused: %v", err)
			}
			chans = append(chans, ch)
		}
		for _, ch := range chans {
			if out := <-ch; out.Err == nil && out.Res.Degraded == serve.DegradedBreakerOpen {
				r := out.Res
				degradedRes = &r
			}
		}
	}
	if degradedRes == nil {
		t.Fatal("breaker never opened / no request was served by the fallback")
	}
	if degradedRes.Model != "gen" {
		t.Errorf("degraded request served by %q, want the quantized fallback gen", degradedRes.Model)
	}
	if fixed.Executions("gen") == 0 {
		t.Error("fallback variant never executed a request")
	}

	phase2 := srv.Snapshot()
	if phase2.BreakerOpens == 0 {
		t.Error("BreakerOpens = 0 after forced failures")
	}
	if phase2.DegradedRouted == 0 || phase2.DegradedServed == 0 {
		t.Errorf("degraded traffic not visible in counters: routed=%d served=%d",
			phase2.DegradedRouted, phase2.DegradedServed)
	}
	open := false
	for _, lb := range phase2.Breakers {
		if lb.Variant == "patrol-student" && lb.Task == "patrol" && lb.State == "open" {
			open = true
			if lb.RetryAfterMS <= 0 {
				t.Error("open lane advertises no retry-after")
			}
		}
	}
	if !open {
		t.Errorf("patrol-student lane not reported open in snapshot: %+v", phase2.Breakers)
	}
	// Zero crashes: the server is still serving — a burst on a healthy,
	// unbroken variant round-trips.
	healthy := make([]<-chan serve.Outcome, 0, burstSize)
	for i := 0; i < burstSize; i++ {
		ch, err := srv.Submit(serve.Request{Task: "inspect", Image: cleanImage(t, b, 2000+i)})
		if err != nil {
			t.Fatalf("healthy-lane submit refused after chaos: %v", err)
		}
		healthy = append(healthy, ch)
	}
	for i, ch := range healthy {
		out := <-ch
		if out.Err != nil || out.Res.Model != "gen" || out.Res.Degraded != "" {
			t.Fatalf("healthy lane after chaos, request %d: res=%+v err=%v", i, out.Res, out.Err)
		}
	}
}
