package serve

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// sortedQuantile is the reference the histogram is held to: the nearest-rank
// quantile of the samples themselves, in microseconds (what the ring-and-sort
// window computed before the histogram replaced it).
func sortedQuantile(samples []time.Duration, q float64) float64 {
	us := make([]float64, len(samples))
	for i, d := range samples {
		us[i] = float64(d) / float64(time.Microsecond)
	}
	sort.Float64s(us)
	i := int(q * float64(len(us)))
	if i >= len(us) {
		i = len(us) - 1
	}
	return us[i]
}

func recordAll(h *hist, samples []time.Duration) {
	for _, d := range samples {
		h.record(d)
	}
}

func latencyInputs() map[string][]time.Duration {
	rng := rand.New(rand.NewSource(1))
	uniform := make([]time.Duration, 20000)
	for i := range uniform {
		uniform[i] = time.Duration(rng.Int63n(int64(50 * time.Millisecond)))
	}
	// The serving mix: most answers are ~1 µs cache hits, the rest ~3 ms
	// forward passes.
	bimodal := make([]time.Duration, 20000)
	for i := range bimodal {
		if rng.Intn(10) < 7 {
			bimodal[i] = 600*time.Nanosecond + time.Duration(rng.Int63n(int64(time.Microsecond)))
		} else {
			bimodal[i] = 2500*time.Microsecond + time.Duration(rng.Int63n(int64(time.Millisecond)))
		}
	}
	return map[string][]time.Duration{
		"uniform": uniform,
		"bimodal": bimodal,
		"single":  {3617 * time.Microsecond},
	}
}

// Every quantile read from the histogram lands within one bucket of the
// sorted samples' quantile: 12.5 % above 8 µs, 1 µs below.
func TestHistQuantileWithinOneBucket(t *testing.T) {
	for name, samples := range latencyInputs() {
		var h hist
		recordAll(&h, samples)
		counts := h.load()
		for _, q := range []float64{0.50, 0.95, 0.99} {
			got, want := histQuantile(counts[:], q), sortedQuantile(samples, q)
			if tol := math.Max(1, want/histSub); math.Abs(got-want) > tol {
				t.Errorf("%s p%.0f = %.2f µs, sorted samples give %.2f (tolerance %.2f)", name, q*100, got, want, tol)
			}
		}
	}
	if got := histQuantile(nil, 0.99); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

// Each value lands in a bucket whose midpoint is within one bucket width of
// it, up to the clamp at the top.
func TestHistBucketBounds(t *testing.T) {
	for _, us := range []uint64{0, 1, 7, 8, 15, 16, 17, 1000, 1 << 20, 1<<32 - 1} {
		i := histBucket(us)
		one := make([]uint64, i+1)
		one[i] = 1
		mid := histQuantile(one, 0.5)
		if width := math.Max(1, float64(us)/histSub); math.Abs(mid-float64(us)) > width {
			t.Errorf("%d µs -> bucket %d with midpoint %.1f", us, i, mid)
		}
	}
	if i := histBucket(math.MaxUint64); i != histBuckets-1 {
		t.Errorf("huge value -> bucket %d, want the last (%d)", i, histBuckets-1)
	}
}

// Subtracting an earlier scrape's buckets from a later one's leaves the
// histogram of exactly the samples recorded between the two.
func TestHistSnapshotsSubtract(t *testing.T) {
	in := latencyInputs()
	m := newMetrics()
	row := m.tenant("t")
	for _, d := range in["bimodal"] {
		m.settle(cCompleted, row, "", d, false)
	}
	before := m.snapshot(time.Second, 0).LatencyBuckets
	for _, d := range in["uniform"] {
		m.settle(cCompleted, row, "", d, false)
	}
	window := m.snapshot(time.Second, 0).LatencyBuckets
	for i, c := range before {
		window[i] -= c
	}
	var only hist
	recordAll(&only, in["uniform"])
	want := only.load()
	for _, q := range []float64{0.50, 0.95, 0.99} {
		if got, want := histQuantile(window, q), histQuantile(want[:], q); got != want {
			t.Errorf("p%.0f of the difference = %v, of the window's own samples %v", q*100, got, want)
		}
	}
}

// Recording allocates nothing, and reading costs the same however many
// latencies were recorded: no window to copy, nothing to sort.
func TestHistAllocs(t *testing.T) {
	var h hist
	if n := testing.AllocsPerRun(1000, func() { h.record(1234 * time.Microsecond) }); n != 0 {
		t.Errorf("record allocates %.1f/op, want 0", n)
	}
	snapshotAllocs := func(samples int) float64 {
		m := newMetrics()
		row := m.tenant("t")
		for i := 0; i < samples; i++ {
			m.settle(cCompleted, row, "model", time.Duration(i%5000)*time.Microsecond, false)
		}
		return testing.AllocsPerRun(20, func() { _ = m.snapshot(time.Second, 0) })
	}
	if few, many := snapshotAllocs(10), snapshotAllocs(100000); many > few {
		t.Errorf("snapshot allocates %.0f after 1e5 latencies, %.0f after 10", many, few)
	}
}
