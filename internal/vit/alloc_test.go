package vit

import (
	"testing"

	"itask/internal/tensor"
	"itask/internal/testutil"
)

// TestForwardInferenceSteadyStateAllocs pins the float model's inference
// forward to the returned feature tensor: every intermediate lives in the
// pooled workspace, so a warm forward allocates only its output.
func TestForwardInferenceSteadyStateAllocs(t *testing.T) {
	cfg := Config{
		ImageSize: 32, Channels: 3, PatchSize: 8,
		Dim: 48, Depth: 3, Heads: 4, MLPRatio: 2, Classes: 5,
	}
	rng := tensor.NewRNG(31)
	m := New(cfg, rng)
	img := tensor.Randn(rng, 0.5, 3, 32, 32)
	patches := Patchify(cfg, []*tensor.Tensor{img})
	// 4 objects (the feature tensor); 6–10 under the race detector, where
	// the workspace pool drops a quarter of its puts and a fresh one costs 17
	// objects while it grows. Taken at the widths a deployment serves at.
	for _, procs := range []int{2, 4} {
		avg := testutil.AllocsPerRunAt(procs, 50, func() { m.Forward(patches, false) })
		if avg > 16 {
			t.Errorf("GOMAXPROCS=%d: float Forward steady state allocates %.0f objects/op, want <= 16", procs, avg)
		}
		t.Logf("GOMAXPROCS=%d: float Forward steady-state allocs/op: %.0f", procs, avg)
	}
}
