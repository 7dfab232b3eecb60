package quant

import (
	"testing"

	"itask/internal/tensor"
	"itask/internal/testutil"
	"itask/internal/vit"
)

// These regression tests pin the steady-state allocation behavior of the
// inference hot paths: after warmup has populated the scratch arenas and
// staging pools, a forward must allocate only a small constant number of
// objects (scratch headers, the escaping output tensor), independent of
// depth × heads worth of per-head intermediates. The seed implementation
// allocated every intermediate fresh; a regression that reintroduces
// per-head or per-layer allocation blows well past these bounds.

func TestLinearIntoSteadyStateAllocs(t *testing.T) {
	rng := tensor.NewRNG(21)
	qw := QuantizeWeight(tensor.Randn(rng, 1, 64, 64), 8, true)
	x := tensor.Randn(rng, 1, 64, 64)
	out := tensor.New(64, 64)
	for i := 0; i < 5; i++ {
		LinearInto(out, x, qw, nil, 8) // warm the staging pools
	}
	avg := testing.AllocsPerRun(100, func() {
		LinearInto(out, x, qw, nil, 8)
	})
	// Budget: no O(rows) or O(size) terms.
	if avg > 6 {
		t.Fatalf("LinearInto steady state allocates %.1f objects/op, want <= 6", avg)
	}
}

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
	// Budget: the escaping feature tensor, scratch headers and the static
	// site lookups — a small constant (92 measured; 121–126 under the race
	// detector, where sync.Pool drops a quarter of its puts). The seed
	// implementation allocated hundreds of objects per forward (fresh
	// tensors for every per-head slice, score matrix, and per-layer
	// intermediate). Taken at the widths a deployment serves at.
	for _, procs := range []int{2, 4} {
		avg := testutil.AllocsPerRunAt(procs, 50, func() { qm.Forward(patches) })
		if avg > 135 {
			t.Errorf("GOMAXPROCS=%d: quant Forward steady state allocates %.0f objects/op, want <= 135", procs, avg)
		}
		t.Logf("GOMAXPROCS=%d: quant Forward steady-state allocs/op: %.0f", procs, avg)
	}
}
