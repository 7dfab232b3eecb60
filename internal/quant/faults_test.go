package quant

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"itask/internal/kernels"
	"itask/internal/tensor"
	"itask/internal/vit"
)

// testModel quantizes a small seeded ViT. Quantization is deterministic, so
// every call returns a fresh copy of the same model.
func testModel(t *testing.T) *Model {
	t.Helper()
	cfg := vit.Config{
		ImageSize: 32, Channels: 3, PatchSize: 8,
		Dim: 32, Depth: 2, Heads: 4, MLPRatio: 2, Classes: 5,
	}
	qm, err := FromViT(vit.New(cfg, tensor.NewRNG(1)), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return qm
}

func TestInjectBitFlipsRateZeroIsNoop(t *testing.T) {
	qm := testModel(t)
	ref := testModel(t)
	flips, err := InjectBitFlips(qm, 0, 1)
	if err != nil || flips != 0 {
		t.Fatalf("flips=%d err=%v", flips, err)
	}
	img := tensor.Randn(tensor.NewRNG(2), 0.5, 3, 32, 32)
	patches := vit.Patchify(qm.Cfg, []*tensor.Tensor{img})
	if !qm.DetHead(qm.Forward(patches)).Equal(ref.DetHead(ref.Forward(patches))) {
		t.Error("zero-rate injection changed the model")
	}
}

func TestInjectBitFlipsCountMatchesRate(t *testing.T) {
	qm := testModel(t)
	total := qm.WeightBits()
	if total <= 0 {
		t.Fatal("no weight bits")
	}
	rate := 0.01
	flips, err := InjectBitFlips(qm, rate, 3)
	if err != nil {
		t.Fatal(err)
	}
	expected := float64(total) * rate
	if float64(flips) < expected/2 || float64(flips) > expected*2 {
		t.Errorf("flips %d, expected ~%.0f of %d bits", flips, expected, total)
	}
}

func TestInjectBitFlipsRowSumsConsistent(t *testing.T) {
	qm := testModel(t)
	if _, err := InjectBitFlips(qm, 0.05, 4); err != nil {
		t.Fatal(err)
	}
	// Row sums must equal the recomputed sums of the corrupted codes.
	check := func(l qLinear) {
		for o := 0; o < l.w.Out; o++ {
			var s int32
			for _, q := range l.w.Q[o*l.w.In : (o+1)*l.w.In] {
				s += int32(q)
			}
			if s != l.w.RowSums[o] {
				t.Fatalf("row sum stale after injection")
			}
		}
	}
	check(qm.embed)
	check(qm.det)
}

func TestInjectBitFlipsCodesStayInRange(t *testing.T) {
	// For a sub-8-bit model, corrupted codes must stay valid Bits-bit
	// values after sign extension.
	cfg := vit.TinyConfig(3)
	m := vit.New(cfg, tensor.NewRNG(5))
	qm, err := FromViT(m, Config{Bits: 4, PerChannel: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InjectBitFlips(qm, 0.2, 6); err != nil {
		t.Fatal(err)
	}
	for _, q := range qm.embed.w.Q {
		if q < -8 || q > 7 {
			t.Fatalf("4-bit code %d out of range after injection", q)
		}
	}
}

func TestInjectBitFlipsDegradesGracefully(t *testing.T) {
	qm := testModel(t)
	img := tensor.Randn(tensor.NewRNG(7), 0.5, 3, 32, 32)
	patches := vit.Patchify(qm.Cfg, []*tensor.Tensor{img})
	ref := qm.DetHead(qm.Forward(patches))

	rms := func(rate float64, seed uint64) float64 {
		c := testModel(t)
		if _, err := InjectBitFlips(c, rate, seed); err != nil {
			t.Fatal(err)
		}
		out := c.DetHead(c.Forward(patches))
		var sum float64
		for i := range out.Data {
			d := float64(out.Data[i] - ref.Data[i])
			sum += d * d
		}
		return math.Sqrt(sum / float64(len(out.Data)))
	}
	low := rms(1e-4, 8)
	high := rms(1e-2, 8)
	if high <= low {
		t.Errorf("more faults should hurt more: rms(1e-4)=%v rms(1e-2)=%v", low, high)
	}
}

func TestInjectBitFlipsValidation(t *testing.T) {
	qm := testModel(t)
	if _, err := InjectBitFlips(qm, -0.1, 1); err == nil {
		t.Error("negative rate should fail")
	}
	if _, err := InjectBitFlips(qm, 1.5, 1); err == nil {
		t.Error("rate > 1 should fail")
	}
}

// TestPanelsFollowCodes: every linear layer's panels P are its codes Q
// packed — after FromViT at every bit width, per channel and per tensor,
// and after InjectBitFlips changed the codes.
func TestPanelsFollowCodes(t *testing.T) {
	check := func(what string, qm *Model) {
		t.Helper()
		for i, l := range qm.linears() {
			want := make([]int8, kernels.PanelLenI8(l.w.Out, l.w.In))
			kernels.PackI8(want, l.w.Q, l.w.Out, l.w.In)
			if !slices.Equal(l.w.P, want) {
				t.Fatalf("%s: linear %d's panels are not its codes packed", what, i)
			}
		}
	}
	cfg := vit.Config{ImageSize: 32, Channels: 3, PatchSize: 8, Dim: 32, Depth: 2, Heads: 4, MLPRatio: 2, Classes: 5}
	m := vit.New(cfg, tensor.NewRNG(1))
	for _, bits := range []int{8, 6, 4} {
		for _, perChannel := range []bool{true, false} {
			qm, err := FromViT(m, Config{Bits: bits, PerChannel: perChannel})
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("FromViT bits=%d perChannel=%v", bits, perChannel), qm)
		}
	}
	qm := testModel(t)
	if n, err := InjectBitFlips(qm, 0.01, 9); err != nil || n == 0 {
		t.Fatalf("InjectBitFlips flipped %d bits, err %v", n, err)
	}
	check("InjectBitFlips", qm)
}
