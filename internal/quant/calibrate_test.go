package quant

import (
	"math"
	"testing"

	"itask/internal/tensor"
	"itask/internal/vit"
)

func TestObserver(t *testing.T) {
	var o Observer
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty observer should panic")
			}
		}()
		o.Params(8, 1)
	}()
	o.Observe(tensor.FromSlice([]float32{-1, 0, 3}, 3))
	o.Observe(tensor.FromSlice([]float32{2, 5}, 2))
	if len(o.values) != 5 {
		t.Errorf("samples = %d", len(o.values))
	}
	qp := o.Params(8, 1)
	// Range [-1, 5] must round-trip the extremes within half a step.
	for _, v := range []float32{-1, 0, 5} {
		got := qp.Dequantize(qp.Quantize(v))
		if d := got - v; d > qp.Scale/2+1e-6 || d < -qp.Scale/2-1e-6 {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func calibModel(t *testing.T) (*vit.Model, []*tensor.Tensor) {
	t.Helper()
	cfg := vit.Config{
		ImageSize: 32, Channels: 3, PatchSize: 8,
		Dim: 32, Depth: 2, Heads: 4, MLPRatio: 2, Classes: 6,
	}
	m := vit.New(cfg, tensor.NewRNG(1))
	rng := tensor.NewRNG(2)
	var images []*tensor.Tensor
	for i := 0; i < 6; i++ {
		images = append(images, tensor.Uniform(rng, 0, 1, 3, 32, 32))
	}
	return m, images
}

func TestCalibrateStructure(t *testing.T) {
	m, images := calibModel(t)
	sp, err := Calibrate(m, images, DefaultConfig(), 0.999)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Blocks) != m.Cfg.Depth {
		t.Fatalf("blocks = %d", len(sp.Blocks))
	}
	for i, b := range sp.Blocks {
		for _, qp := range []QParams{b.QKVIn, b.ProjIn, b.MLP1In, b.MLP2In} {
			if qp.Scale <= 0 {
				t.Errorf("block %d has non-positive scale", i)
			}
		}
	}
	if sp.EmbedIn.Scale <= 0 || sp.DetIn.Scale <= 0 || sp.ClsIn.Scale <= 0 {
		t.Error("head/embed params degenerate")
	}
}

func TestCalibrateErrors(t *testing.T) {
	m, images := calibModel(t)
	if _, err := Calibrate(m, nil, DefaultConfig(), 0.999); err == nil {
		t.Error("no calibration images should fail")
	}
	if _, err := Calibrate(m, images, Config{Bits: 3}, 0.999); err == nil {
		t.Error("bad scheme should fail")
	}
}

// TestStaticCloseToDynamic is the key fidelity test: statically calibrated
// inference must track dynamic quantization closely on in-distribution
// inputs (same data family as calibration).
func TestStaticCloseToDynamic(t *testing.T) {
	m, images := calibModel(t)
	qm, err := FromViT(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Calibrate(m, images, DefaultConfig(), 0.999)
	if err != nil {
		t.Fatal(err)
	}

	test := tensor.Uniform(tensor.NewRNG(9), 0, 1, 3, 32, 32)
	patches := vit.Patchify(m.Cfg, []*tensor.Tensor{test})

	dynOut := qm.DetHead(qm.Forward(patches))
	if err := qm.SetStatic(sp); err != nil {
		t.Fatal(err)
	}
	statOut := qm.DetHead(qm.Forward(patches))
	if err := qm.SetStatic(nil); err != nil {
		t.Fatal(err)
	}
	backOut := qm.DetHead(qm.Forward(patches))

	// Static vs dynamic RMS difference small relative to signal.
	var diff, sig float64
	for i := range dynOut.Data {
		d := float64(statOut.Data[i] - dynOut.Data[i])
		diff += d * d
		sig += float64(dynOut.Data[i]) * float64(dynOut.Data[i])
	}
	if math.Sqrt(diff) > 0.35*math.Sqrt(sig) {
		t.Errorf("static deviates too much: rms diff %.4f vs signal %.4f",
			math.Sqrt(diff/float64(len(dynOut.Data))), math.Sqrt(sig/float64(len(dynOut.Data))))
	}
	// SetStatic(nil) restores dynamic behaviour exactly.
	if !backOut.Equal(dynOut) {
		t.Error("clearing static params did not restore dynamic inference")
	}
}

func TestSetStaticValidation(t *testing.T) {
	m, images := calibModel(t)
	qm, err := FromViT(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Calibrate(m, images, DefaultConfig(), 0.999)
	if err != nil {
		t.Fatal(err)
	}
	sp.Blocks = sp.Blocks[:1] // wrong depth
	if err := qm.SetStatic(sp); err == nil {
		t.Error("depth mismatch should fail")
	}
}
