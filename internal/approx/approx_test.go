package approx

import (
	"math"
	"testing"
	"testing/quick"

	"itask/internal/tensor"
)

func TestExpAccuracy(t *testing.T) {
	// Softmax inputs are max-subtracted: the relevant domain is [-30, 0].
	for x := float32(-30); x <= 0; x += 0.01 {
		got := float64(Exp(x))
		want := math.Exp(float64(x))
		if want > 1e-12 {
			rel := math.Abs(got-want) / want
			if rel > 0.005 {
				t.Fatalf("Exp(%v) rel error %v", x, rel)
			}
		}
	}
	// Positive side up to saturation.
	for x := float32(0); x <= 20; x += 0.01 {
		rel := math.Abs(float64(Exp(x))-math.Exp(float64(x))) / math.Exp(float64(x))
		if rel > 0.005 {
			t.Fatalf("Exp(%v) rel error %v", x, rel)
		}
	}
}

func TestExpEdges(t *testing.T) {
	if Exp(-100) != 0 {
		t.Error("deep negative should flush to zero")
	}
	if v := Exp(100); math.IsInf(float64(v), 1) || math.IsNaN(float64(v)) {
		t.Errorf("saturated Exp produced %v", v)
	}
	if got := Exp(0); math.Abs(float64(got)-1) > 0.004 {
		t.Errorf("Exp(0) = %v", got)
	}
}

func TestRsqrtAccuracy(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		x := float32(rng.Range(1e-6, 1e6))
		got := float64(Rsqrt(x))
		want := 1 / math.Sqrt(float64(x))
		return math.Abs(got-want)/want < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxRowsMatchesExact(t *testing.T) {
	rng := tensor.NewRNG(1)
	x := tensor.Randn(rng, 3, 8, 16)
	got := SoftmaxRows(x)
	want := x.Clone()
	want.SoftmaxRowsF32(1)
	for i := range got.Data {
		if math.Abs(float64(got.Data[i]-want.Data[i])) > 0.005 {
			t.Fatalf("softmax[%d]: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
	// Rows still sum to 1 (normalization is exact by construction).
	for i := 0; i < 8; i++ {
		var sum float64
		for j := 0; j < 16; j++ {
			sum += float64(got.At(i, j))
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestLayerNormRowsMatchesExact(t *testing.T) {
	rng := tensor.NewRNG(2)
	d := 24
	x := tensor.Randn(rng, 2, 6, d)
	gamma := make([]float32, d)
	beta := make([]float32, d)
	for i := range gamma {
		gamma[i] = 1 + 0.1*float32(i%3)
		beta[i] = -0.05 * float32(i%5)
	}
	got := LayerNormRows(x, gamma, beta, 1e-5)
	// Exact reference.
	for i := 0; i < 6; i++ {
		row := x.Data[i*d : (i+1)*d]
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(d)
		var variance float64
		for _, v := range row {
			dv := float64(v) - mean
			variance += dv * dv
		}
		variance /= float64(d)
		inv := 1 / math.Sqrt(variance+1e-5)
		for j, v := range row {
			want := float64(gamma[j])*(float64(v)-mean)*inv + float64(beta[j])
			if math.Abs(float64(got.At(i, j))-want) > 1e-3 {
				t.Fatalf("LN[%d][%d]: %v vs %v", i, j, got.At(i, j), want)
			}
		}
	}
}

func TestGELUShape(t *testing.T) {
	// Sigmoid-GELU must agree with tanh-GELU within a few percent over the
	// active range and preserve the key fixed points.
	for x := float32(-5); x <= 5; x += 0.05 {
		got := float64(GELU(x))
		want := 0.5 * float64(x) * (1 + math.Tanh(0.7978845608*(float64(x)+0.044715*float64(x*x*x))))
		if math.Abs(got-want) > 0.035 {
			t.Fatalf("GELU(%v) = %v, reference %v", x, got, want)
		}
	}
	if GELU(0) != 0 {
		t.Error("GELU(0) must be 0")
	}
	if g := GELU(10); math.Abs(float64(g)-10) > 0.01 {
		t.Errorf("GELU(10) = %v, want ~10", g)
	}
}
