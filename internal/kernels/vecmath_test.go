package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// ulps is the distance between two finite float32s in units in the last
// place (±0 are the same point).
func ulps(a, b float32) int {
	ordered := func(f float32) int {
		if bits := math.Float32bits(f); bits&0x80000000 != 0 {
			return -int(bits &^ 0x80000000)
		} else {
			return int(bits)
		}
	}
	d := ordered(a) - ordered(b)
	if d < 0 {
		return -d
	}
	return d
}

// TestExp32WithinTwoUlp holds the float32 exponential to its bound against
// math.Exp rounded to float32: a dense walk over the range softmax feeds it
// ([-30, 0]) and GELU does ([-30, 30]), random arguments over the whole
// domain, and the edges.
func TestExp32WithinTwoUlp(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	check := func(x float32) {
		want := float32(math.Exp(float64(x)))
		if want < 0x1p-126 || math.IsInf(float64(want), 0) {
			return // outside the bound's range: subnormal or overflowed
		}
		if got := exp32(x); ulps(got, want) > 2 {
			t.Fatalf("exp32(%v) = %v, want %v (%d ulp)", x, got, want, ulps(got, want))
		}
	}
	for x := float32(-30); x <= 30; x += 1.0 / 4096 {
		check(x)
	}
	for i := 0; i < 400000; i++ {
		check(float32(rng.Float64()*176 - 87.5))
		check(math.Float32frombits(rng.Uint32() &^ 0x40000000)) // every magnitude below 2
	}
	for _, x := range []float32{0, float32(math.Copysign(0, -1)), 1e-30, -1e-30, 1, -1, minLog32, maxLog32} {
		check(x)
	}
	if got := exp32(-200); got != 0 {
		t.Errorf("exp32(-200) = %v, want 0", got)
	}
	if got := exp32(200); !math.IsInf(float64(got), 1) {
		t.Errorf("exp32(200) = %v, want +Inf", got)
	}
	if got := exp32(float32(math.NaN())); got == got {
		t.Errorf("exp32(NaN) = %v", got)
	}
}

// TestSoftmaxAndGELUF32AgainstFloat64: the two inference kernels against
// the float64 formulas the training paths compute.
func TestSoftmaxAndGELUF32AgainstFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for n := 1; n <= 40; n++ {
		row := randF32(rng, n)
		for i := range row {
			row[i] *= 4
		}
		want := make([]float64, n)
		m, sum := float64(row[0]), 0.0
		for _, v := range row {
			m = math.Max(m, float64(v))
		}
		for i, v := range row {
			want[i] = math.Exp(float64(v) - m)
			sum += want[i]
		}
		SoftmaxF32(row)
		var total float64
		for i, got := range row {
			total += float64(got)
			if d := math.Abs(float64(got) - want[i]/sum); d > 1e-6 {
				t.Fatalf("softmax n=%d [%d] = %v, want %v", n, i, got, want[i]/sum)
			}
		}
		if math.Abs(total-1) > 1e-5 {
			t.Fatalf("softmax n=%d sums to %v", n, total)
		}
	}
	src := randF32(rng, 4096)
	for i := range src {
		src[i] *= 3
	}
	src[0], src[1], src[2], src[3] = 0, 40, -40, float32(math.Copysign(0, -1))
	dst := make([]float32, len(src))
	GELUF32(dst, src)
	for i, x := range src {
		fx := float64(x)
		want := 0.5 * fx * (1 + math.Tanh(0.7978845608028654*(fx+0.044715*fx*fx*fx)))
		if x >= 0 {
			if u := ulps(dst[i], float32(want)); u > 3 {
				t.Fatalf("GELUF32(%v) = %v, want %v (%d ulp)", x, dst[i], want, u)
			}
		} else if d := math.Abs(float64(dst[i]) - want); d > 0x1p-22*math.Abs(fx) {
			t.Fatalf("GELUF32(%v) = %v, want %v", x, dst[i], want)
		}
	}
	GELUF32(src, src) // in place
	for i := range src {
		if math.Float32bits(src[i]) != math.Float32bits(dst[i]) {
			t.Fatalf("GELUF32 in place differs at %d", i)
		}
	}
}

// The benchmarks walk a buffer too long for the branch predictor to learn:
// a served frame is new data every time.
func BenchmarkSoftmaxF32_16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src, row := randF32(rng, 1<<16), make([]float32, 16)
	for i := 0; i < b.N; i++ {
		copy(row, src[i*16&(1<<16-1):])
		SoftmaxF32(row)
	}
}

func BenchmarkGELUF32_1536(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src, dst := randF32(rng, 1<<16), make([]float32, 1536)
	for i := 0; i < b.N; i++ {
		GELUF32(dst, src[i*1536%(1<<16-1536):][:1536])
	}
}
