package vit

import (
	"testing"

	"itask/internal/tensor"
	"itask/internal/testutil"
)

// TestForwardInferenceSteadyStateAllocs pins the float model's inference
// forward to a small constant allocation budget: attention head scratch,
// score matrices, and softmax buffers all come from the tensor arena after
// warmup, so only per-layer output tensors and scratch headers remain.
func TestForwardInferenceSteadyStateAllocs(t *testing.T) {
	cfg := Config{
		ImageSize: 32, Channels: 3, PatchSize: 8,
		Dim: 48, Depth: 3, Heads: 4, MLPRatio: 2, Classes: 5,
	}
	rng := tensor.NewRNG(31)
	m := New(cfg, rng)
	img := tensor.Randn(rng, 0.5, 3, 32, 32)
	patches := Patchify(cfg, []*tensor.Tensor{img})
	// The seed implementation allocated ~5 fresh tensors per head per block
	// (q/k/v slices, scores, probabilities, context) — O(depth × heads) and
	// proportional to batch. The arena path leaves the per-layer Sequential
	// outputs plus a fixed number of scratch headers: a per-architecture
	// constant (170 measured; 175 under the race detector, where sync.Pool
	// drops a quarter of its puts), independent of batch and heads. An
	// inference LayerNorm allocates its output only, no backward caches.
	// Taken at the widths a deployment serves at.
	for _, procs := range []int{2, 4} {
		avg := testutil.AllocsPerRunAt(procs, 50, func() { m.Forward(patches, false) })
		if avg > 185 {
			t.Errorf("GOMAXPROCS=%d: float Forward steady state allocates %.0f objects/op, want <= 185", procs, avg)
		}
		t.Logf("GOMAXPROCS=%d: float Forward steady-state allocs/op: %.0f", procs, avg)
	}
}
