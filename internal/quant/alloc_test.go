package quant

import (
	"testing"

	"itask/internal/tensor"
	"itask/internal/testutil"
	"itask/internal/vit"
)

// TestQuantForwardSteadyStateAllocs pins the int8 forward to the returned
// feature tensor: activation codes, accumulators and per-head key/value
// codes live in the pooled workspace with the trunk's intermediates.
func TestQuantForwardSteadyStateAllocs(t *testing.T) {
	cfg := vit.Config{
		ImageSize: 32, Channels: 3, PatchSize: 8,
		Dim: 48, Depth: 3, Heads: 4, MLPRatio: 2, Classes: 5,
	}
	rng := tensor.NewRNG(22)
	m := vit.New(cfg, rng)
	qm, err := FromViT(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	img := tensor.Randn(rng, 0.5, 3, 32, 32)
	patches := vit.Patchify(cfg, []*tensor.Tensor{img})
	// 4 objects (the feature tensor); 6–10 under the race detector, where
	// the workspace pool drops a quarter of its puts and a fresh one allocates
	// while it grows. Taken at the widths a deployment serves at.
	for _, procs := range []int{2, 4} {
		avg := testutil.AllocsPerRunAt(procs, 50, func() { qm.Forward(patches) })
		if avg > 16 {
			t.Errorf("GOMAXPROCS=%d: quant Forward steady state allocates %.0f objects/op, want <= 16", procs, avg)
		}
		t.Logf("GOMAXPROCS=%d: quant Forward steady-state allocs/op: %.0f", procs, avg)
	}
}
