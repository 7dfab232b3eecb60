package nn

import (
	"math"
	"testing"

	"itask/internal/tensor"
)

// quadratic is a toy objective L(w) = 0.5 * Σ (w_i - target_i)² whose
// gradient is w - target; any sane optimizer must converge to target.
func quadraticGrad(p *Param, target *tensor.Tensor) {
	for i := range p.W.Data {
		p.G.Data[i] = p.W.Data[i] - target.Data[i]
	}
}

func testConvergence(t *testing.T, name string, opt Optimizer, steps int, tol float64) {
	t.Helper()
	rng := tensor.NewRNG(7)
	target := tensor.Randn(rng, 1, 10)
	p := NewParam("w", tensor.Randn(rng, 1, 10))
	for i := 0; i < steps; i++ {
		quadraticGrad(p, target)
		opt.Step([]*Param{p})
	}
	dist := float64(tensor.Add(p.W, tensor.Scale(target, -1)).Norm2())
	if dist > tol {
		t.Errorf("%s: after %d steps dist to optimum = %v (tol %v)", name, steps, dist, tol)
	}
	// Gradients must be zeroed by Step.
	if p.G.AbsMax() != 0 {
		t.Errorf("%s: Step did not zero gradients", name)
	}
}

func TestSGDConverges(t *testing.T) {
	testConvergence(t, "SGD", NewSGD(0.1, 0, 0), 200, 1e-3)
}

func TestSGDMomentumConverges(t *testing.T) {
	testConvergence(t, "SGD+momentum", NewSGD(0.05, 0.9, 0), 200, 1e-3)
}

func TestAdamConverges(t *testing.T) {
	testConvergence(t, "Adam", NewAdam(0.1), 300, 1e-2)
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	p := NewParam("w", tensor.Full(1, 4))
	opt := NewAdamW(0.01, 0.5)
	// Zero gradient: only decay acts.
	for i := 0; i < 10; i++ {
		opt.Step([]*Param{p})
	}
	for _, v := range p.W.Data {
		if v >= 1 {
			t.Errorf("decay did not shrink weight: %v", v)
		}
	}
}

func TestSGDDecay(t *testing.T) {
	p := NewParam("w", tensor.Full(2, 3))
	opt := NewSGD(0.1, 0, 0.5)
	opt.Step([]*Param{p})
	want := float32(2 * (1 - 0.1*0.5))
	for _, v := range p.W.Data {
		if math.Abs(float64(v-want)) > 1e-6 {
			t.Errorf("decayed weight = %v, want %v", v, want)
		}
	}
}

func TestSetLR(t *testing.T) {
	for _, opt := range []Optimizer{NewSGD(0.1, 0, 0), NewAdam(0.1)} {
		opt.SetLR(0.5)
		if opt.LR() != 0.5 {
			t.Errorf("SetLR not applied: %v", opt.LR())
		}
	}
}

func TestCosineSchedule(t *testing.T) {
	base, floor := float32(1.0), float32(0.1)
	warmup, total := 10, 100
	// Warmup is increasing.
	prev := float32(0)
	for i := 0; i < warmup; i++ {
		lr := CosineSchedule(base, floor, warmup, total, i)
		if lr <= prev {
			t.Fatalf("warmup not increasing at %d: %v <= %v", i, lr, prev)
		}
		prev = lr
	}
	// Peak near base right after warmup.
	if lr := CosineSchedule(base, floor, warmup, total, warmup); math.Abs(float64(lr-base)) > 1e-5 {
		t.Errorf("post-warmup lr = %v, want %v", lr, base)
	}
	// Monotone non-increasing during decay, ending at floor.
	prev = base + 1
	for i := warmup; i <= total; i++ {
		lr := CosineSchedule(base, floor, warmup, total, i)
		if lr > prev+1e-6 {
			t.Fatalf("decay not monotone at %d", i)
		}
		if lr < floor-1e-6 {
			t.Fatalf("lr %v below floor at %d", lr, i)
		}
		prev = lr
	}
	if lr := CosineSchedule(base, floor, warmup, total, total+50); lr != floor {
		t.Errorf("past-total lr = %v, want floor", lr)
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("w", tensor.New(2))
	p.G.Data[0] = 3
	p.G.Data[1] = 4 // norm 5
	pre := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(float64(pre-5)) > 1e-6 {
		t.Errorf("pre-clip norm = %v, want 5", pre)
	}
	if n := GradNorm([]*Param{p}); math.Abs(float64(n-1)) > 1e-5 {
		t.Errorf("post-clip norm = %v, want 1", n)
	}
	// Below threshold: untouched.
	p.G.Data[0], p.G.Data[1] = 0.3, 0.4
	ClipGradNorm([]*Param{p}, 1)
	if p.G.Data[0] != 0.3 {
		t.Error("clip should not touch small gradients")
	}
}

func TestCountParams(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewLinear("fc", 3, 4, rng)
	if got := CountParams(l.Params()); got != 3*4+4 {
		t.Errorf("CountParams = %d, want 16", got)
	}
}

func TestDropoutTrainEval(t *testing.T) {
	rng := tensor.NewRNG(9)
	d := NewDropout(0.5, rng)
	x := tensor.Ones(100, 10)
	// Eval mode: identity.
	y := d.Forward(x, false)
	if !y.Equal(x) {
		t.Error("eval-mode dropout must be identity")
	}
	// Train mode: roughly half zeroed, survivors scaled by 2.
	y = d.Forward(x, true)
	zeros, twos := 0, 0
	for _, v := range y.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	frac := float64(zeros) / float64(len(y.Data))
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("dropout zero fraction = %v, want ~0.5", frac)
	}
	// Backward uses the same mask.
	dy := tensor.Ones(100, 10)
	dx := d.Backward(dy)
	for i, v := range y.Data {
		if (v == 0) != (dx.Data[i] == 0) {
			t.Fatal("backward mask mismatch")
		}
	}
	// Expectation preserved: mean of outputs ~ mean of inputs.
	if m := float64(y.Sum()) / float64(y.Size()); m < 0.85 || m > 1.15 {
		t.Errorf("inverted dropout mean = %v, want ~1", m)
	}
}

func TestDropoutInvalidP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p=1")
		}
	}()
	NewDropout(1.0, tensor.NewRNG(1))
}
