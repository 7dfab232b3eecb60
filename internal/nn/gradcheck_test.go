package nn

import (
	"fmt"
	"math"
	"testing"

	"itask/internal/tensor"
)

// lossOf evaluates the scalar test loss L = Σ w ⊙ f(x) used for gradient
// checking, with a fixed random weighting w to make the loss sensitive to
// every output element.
func lossOf(l Layer, x, w *tensor.Tensor) float64 {
	y := l.Forward(x, true)
	return float64(tensor.Dot(y, w))
}

// checkGradients verifies analytic gradients of layer l against central
// finite differences, for both the input and every parameter.
func checkGradients(t *testing.T, name string, l Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := tensor.NewRNG(12345)
	y := l.Forward(x, true)
	w := tensor.Randn(rng, 1, y.Shape...)
	ZeroGrads(l.Params())
	// Re-run forward so caches correspond to this x (Forward above already
	// did, but be explicit about the pairing).
	l.Forward(x, true)
	dx := l.Backward(w.Clone())

	const eps = 1e-3
	// Input gradient.
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := lossOf(l, x, w)
		x.Data[i] = orig - eps
		lm := lossOf(l, x, w)
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		ana := float64(dx.Data[i])
		if relErr(num, ana) > tol {
			t.Errorf("%s: dX[%d] numeric %.6g vs analytic %.6g", name, i, num, ana)
			return
		}
	}
	// Parameter gradients (sample to keep runtime sane on big layers).
	for _, p := range l.Params() {
		stride := 1
		if p.NumEl() > 64 {
			stride = p.NumEl() / 64
		}
		for i := 0; i < p.NumEl(); i += stride {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := lossOf(l, x, w)
			p.W.Data[i] = orig - eps
			lm := lossOf(l, x, w)
			p.W.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			ana := float64(p.G.Data[i])
			if relErr(num, ana) > tol {
				t.Errorf("%s: d%s[%d] numeric %.6g vs analytic %.6g", name, p.Name, i, num, ana)
				return
			}
		}
	}
}

func relErr(a, b float64) float64 {
	d := math.Abs(a - b)
	den := math.Max(math.Abs(a), math.Abs(b))
	if den < 0.05 {
		// Near zero the float32 central difference is dominated by
		// cancellation noise (~loss·2⁻²³/eps ≈ 1e-3); compare absolutely.
		return d
	}
	return d / den
}

func TestLinearGradients(t *testing.T) {
	for _, shape := range []struct{ rows, in, out int }{
		{1, 3, 2}, {4, 5, 7}, {6, 8, 8},
	} {
		rng := tensor.NewRNG(uint64(shape.rows*100 + shape.in))
		l := NewLinear("fc", shape.in, shape.out, rng)
		x := tensor.Randn(rng, 1, shape.rows, shape.in)
		checkGradients(t, fmt.Sprintf("Linear(%d,%d,%d)", shape.rows, shape.in, shape.out), l, x, 2e-2)
	}
}

func TestLinearNoBiasGradients(t *testing.T) {
	rng := tensor.NewRNG(8)
	l := &Linear{In: 4, Out: 3, Weight: NewParam("fc.weight", tensor.XavierUniform(rng, 3, 4))}
	if len(l.Params()) != 1 {
		t.Fatalf("no-bias linear should expose 1 param, got %d", len(l.Params()))
	}
	x := tensor.Randn(rng, 1, 5, 4)
	checkGradients(t, "LinearNoBias", l, x, 2e-2)
}

func TestLayerNormGradients(t *testing.T) {
	rng := tensor.NewRNG(21)
	l := NewLayerNorm("ln", 6)
	// Non-identity affine so gamma gradients are exercised nontrivially.
	for i := range l.Gamma.W.Data {
		l.Gamma.W.Data[i] = 1 + 0.1*float32(i)
		l.Beta.W.Data[i] = -0.05 * float32(i)
	}
	x := tensor.Randn(rng, 1.5, 4, 6)
	checkGradients(t, "LayerNorm", l, x, 3e-2)
}

func TestGELUGradients(t *testing.T) {
	rng := tensor.NewRNG(31)
	l := NewGELU()
	x := tensor.Randn(rng, 2, 5, 7)
	checkGradients(t, "GELU", l, x, 2e-2)
}

func TestReLUGradients(t *testing.T) {
	rng := tensor.NewRNG(41)
	l := NewReLU()
	x := tensor.Randn(rng, 2, 5, 7)
	// Nudge values away from the kink at 0 where finite differences lie.
	for i, v := range x.Data {
		if v > -0.01 && v < 0.01 {
			x.Data[i] = 0.5
		}
	}
	checkGradients(t, "ReLU", l, x, 2e-2)
}

func TestAttentionGradients(t *testing.T) {
	for _, cfg := range []struct{ dim, heads, tokens, batch int }{
		{4, 1, 3, 1},
		{8, 2, 4, 2},
	} {
		rng := tensor.NewRNG(uint64(cfg.dim * cfg.tokens))
		a := NewMultiHeadAttention("attn", cfg.dim, cfg.heads, cfg.tokens, rng)
		x := tensor.Randn(rng, 0.7, cfg.batch*cfg.tokens, cfg.dim)
		checkGradients(t, fmt.Sprintf("MHSA(d=%d,h=%d,t=%d,b=%d)", cfg.dim, cfg.heads, cfg.tokens, cfg.batch), a, x, 4e-2)
	}
}

func TestSequentialGradients(t *testing.T) {
	rng := tensor.NewRNG(51)
	s := NewSequential(
		NewLinear("fc1", 5, 8, rng),
		NewGELU(),
		NewLayerNorm("ln", 8),
		NewLinear("fc2", 8, 3, rng),
	)
	x := tensor.Randn(rng, 1, 4, 5)
	checkGradients(t, "Sequential", s, x, 3e-2)
}

func TestResidualGradients(t *testing.T) {
	rng := tensor.NewRNG(61)
	r := NewResidual(NewSequential(
		NewLayerNorm("ln", 6),
		NewLinear("fc", 6, 6, rng),
	))
	x := tensor.Randn(rng, 1, 3, 6)
	checkGradients(t, "Residual", r, x, 3e-2)
}

func TestMHSADimDivisibilityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for dim not divisible by heads")
		}
	}()
	NewMultiHeadAttention("a", 7, 2, 4, tensor.NewRNG(1))
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	rng := tensor.NewRNG(1)
	layers := map[string]Layer{
		"Linear":    NewLinear("fc", 2, 2, rng),
		"LayerNorm": NewLayerNorm("ln", 2),
		"GELU":      NewGELU(),
		"ReLU":      NewReLU(),
		"MHSA":      NewMultiHeadAttention("a", 2, 1, 1, rng),
	}
	for name, l := range layers {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on Backward before Forward", name)
				}
			}()
			l.Backward(tensor.New(1, 2))
		}()
	}
}
