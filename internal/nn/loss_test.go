package nn

import (
	"math"
	"testing"

	"itask/internal/tensor"
)

// numericLossGrad computes the central-difference gradient of loss fn with
// respect to pred.
func numericLossGrad(fn func(*tensor.Tensor) float32, pred *tensor.Tensor) *tensor.Tensor {
	const eps = 1e-3
	g := tensor.New(pred.Shape...)
	for i := range pred.Data {
		orig := pred.Data[i]
		pred.Data[i] = orig + eps
		lp := float64(fn(pred))
		pred.Data[i] = orig - eps
		lm := float64(fn(pred))
		pred.Data[i] = orig
		g.Data[i] = float32((lp - lm) / (2 * eps))
	}
	return g
}

func assertGradMatches(t *testing.T, name string, analytic, numeric *tensor.Tensor, tol float64) {
	t.Helper()
	for i := range analytic.Data {
		if relErr(float64(analytic.Data[i]), float64(numeric.Data[i])) > tol {
			t.Fatalf("%s grad[%d]: analytic %v vs numeric %v", name, i, analytic.Data[i], numeric.Data[i])
		}
	}
}

func TestCrossEntropyValue(t *testing.T) {
	// Uniform logits over C classes -> loss = log(C).
	logits := tensor.New(2, 4)
	loss, _ := CrossEntropy(logits, []int{0, 3})
	want := float32(math.Log(4))
	if math.Abs(float64(loss-want)) > 1e-5 {
		t.Errorf("uniform CE = %v, want %v", loss, want)
	}
	// Near-certain correct prediction -> near-zero loss.
	confident := tensor.FromSlice([]float32{20, 0, 0, 0}, 1, 4)
	loss, _ = CrossEntropy(confident, []int{0})
	if loss > 1e-3 {
		t.Errorf("confident CE = %v, want ~0", loss)
	}
}

func TestCrossEntropyIgnoreIndex(t *testing.T) {
	rng := tensor.NewRNG(1)
	logits := tensor.Randn(rng, 1, 3, 5)
	lossAll, _ := CrossEntropy(logits, []int{1, 2, 3})
	lossIgn, grad := CrossEntropy(logits, []int{1, -1, 3})
	if lossAll == lossIgn {
		t.Error("ignored row should change the mean loss")
	}
	// Ignored row's gradient must be exactly zero.
	for j := 0; j < 5; j++ {
		if grad.At(1, j) != 0 {
			t.Fatalf("ignored row has nonzero grad %v", grad.At(1, j))
		}
	}
	// All rows ignored -> zero loss, zero grad.
	loss0, grad0 := CrossEntropy(logits, []int{-1, -1, -1})
	if loss0 != 0 || grad0.AbsMax() != 0 {
		t.Error("all-ignored CE should be exactly zero")
	}
}

func TestCrossEntropyGradient(t *testing.T) {
	rng := tensor.NewRNG(2)
	logits := tensor.Randn(rng, 1, 4, 6)
	labels := []int{0, 5, 2, -1}
	_, grad := CrossEntropy(logits, labels)
	num := numericLossGrad(func(p *tensor.Tensor) float32 {
		l, _ := CrossEntropy(p, labels)
		return l
	}, logits)
	assertGradMatches(t, "CrossEntropy", grad, num, 2e-2)
}

func TestKLDistillProperties(t *testing.T) {
	rng := tensor.NewRNG(4)
	teacher := tensor.Randn(rng, 2, 4, 6)
	// KL(p ‖ p) == 0 with zero gradient.
	loss, grad := KLDistill(teacher.Clone(), teacher, 2)
	if math.Abs(float64(loss)) > 1e-5 {
		t.Errorf("KL(self) = %v, want 0", loss)
	}
	if grad.AbsMax() > 1e-6 {
		t.Errorf("KL(self) grad max = %v, want 0", grad.AbsMax())
	}
	// KL is non-negative for any student.
	student := tensor.Randn(rng, 2, 4, 6)
	loss, _ = KLDistill(student, teacher, 2)
	if loss < 0 {
		t.Errorf("KL = %v, want >= 0", loss)
	}
}

func TestKLDistillGradient(t *testing.T) {
	rng := tensor.NewRNG(5)
	student := tensor.Randn(rng, 1, 3, 4)
	teacher := tensor.Randn(rng, 1, 3, 4)
	for _, temp := range []float32{1, 2, 4} {
		_, grad := KLDistill(student, teacher, temp)
		num := numericLossGrad(func(p *tensor.Tensor) float32 {
			l, _ := KLDistill(p, teacher, temp)
			return l
		}, student)
		assertGradMatches(t, "KLDistill", grad, num, 3e-2)
	}
}

func TestMSE(t *testing.T) {
	pred := tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	target := tensor.FromSlice([]float32{1, 2, 3, 6}, 2, 2)
	loss, grad := MSE(pred, target)
	if loss != 1 { // (0+0+0+4)/4
		t.Errorf("MSE = %v, want 1", loss)
	}
	num := numericLossGrad(func(p *tensor.Tensor) float32 {
		l, _ := MSE(p, target)
		return l
	}, pred)
	assertGradMatches(t, "MSE", grad, num, 1e-2)
}

func TestSmoothL1(t *testing.T) {
	pred := tensor.FromSlice([]float32{0.05, 3}, 2)
	target := tensor.FromSlice([]float32{0, 0}, 2)
	loss, grad := SmoothL1(pred, target, 1)
	// element 0: quadratic region 0.5*0.0025; element 1: linear 3-0.5=2.5
	want := float32((0.5*0.05*0.05 + 2.5) / 2)
	if math.Abs(float64(loss-want)) > 1e-6 {
		t.Errorf("SmoothL1 = %v, want %v", loss, want)
	}
	num := numericLossGrad(func(p *tensor.Tensor) float32 {
		l, _ := SmoothL1(p, target, 1)
		return l
	}, pred)
	assertGradMatches(t, "SmoothL1", grad, num, 2e-2)
}

func TestBCEWithLogits(t *testing.T) {
	rng := tensor.NewRNG(6)
	logits := tensor.Randn(rng, 1.2, 3, 3)
	target := tensor.New(3, 3)
	for i := range target.Data {
		if rng.Bool(0.5) {
			target.Data[i] = 1
		}
	}
	loss, grad := BCEWithLogits(logits, target, nil)
	if loss <= 0 {
		t.Errorf("BCE = %v, want > 0", loss)
	}
	num := numericLossGrad(func(p *tensor.Tensor) float32 {
		l, _ := BCEWithLogits(p, target, nil)
		return l
	}, logits)
	assertGradMatches(t, "BCE", grad, num, 2e-2)
}

func TestBCEWithLogitsWeighted(t *testing.T) {
	logits := tensor.FromSlice([]float32{2, -2}, 2)
	target := tensor.FromSlice([]float32{1, 0}, 2)
	weight := tensor.FromSlice([]float32{0, 1}, 2)
	_, grad := BCEWithLogits(logits, target, weight)
	if grad.Data[0] != 0 {
		t.Error("zero-weight element should have zero grad")
	}
	// Numeric check on the weighted version too.
	num := numericLossGrad(func(p *tensor.Tensor) float32 {
		l, _ := BCEWithLogits(p, target, weight)
		return l
	}, logits)
	assertGradMatches(t, "BCEWeighted", grad, num, 2e-2)
	// All-zero weights: defined as zero loss/grad.
	l0, g0 := BCEWithLogits(logits, target, tensor.New(2))
	if l0 != 0 || g0.AbsMax() != 0 {
		t.Error("all-zero-weight BCE should be zero")
	}
}

func TestBCEStabilityExtremeLogits(t *testing.T) {
	logits := tensor.FromSlice([]float32{500, -500}, 2)
	target := tensor.FromSlice([]float32{1, 0}, 2)
	loss, grad := BCEWithLogits(logits, target, nil)
	if math.IsNaN(float64(loss)) || math.IsInf(float64(loss), 0) {
		t.Fatalf("BCE overflowed: %v", loss)
	}
	if loss > 1e-3 {
		t.Errorf("correct extreme predictions should give ~0 loss, got %v", loss)
	}
	for _, g := range grad.Data {
		if math.IsNaN(float64(g)) {
			t.Fatal("NaN gradient")
		}
	}
}
