package kernels

import (
	"fmt"
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

// same reports whether two float32s have the same bits, counting any two
// NaNs as the same: a NaN's payload is not part of the kernels' contract.
func same(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// exp32x8 is exp32 over src through the eight-wide assembly where it is
// active (the Go exp32 for the tail, and everywhere on a noasm build).
func exp32x8(dst, src []float32) {
	i := 0
	if useAsm && len(src) >= 8 {
		i = len(src) &^ 7
		exp32Asm(&dst[0], &src[0], i)
	}
	for ; i < len(src); i++ {
		dst[i] = exp32(src[i])
	}
}

// specials are the inputs every vector kernel is run on besides random
// data: signed zeros, infinities, a NaN, subnormals, and arguments either
// side of exp32's range limits.
var specials = []float32{
	0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.Float32frombits(1), -math.Float32frombits(1), 1e-40, -1e-40, 0x1p-126, -0x1p-126,
	minLog32, maxLog32, math.Nextafter32(minLog32, -100), math.Nextafter32(maxLog32, 100),
	-88, 89, -100, 100, 1e30, -1e30, 3.4e38, -3.4e38, 1, -1, 0.5, -0.5,
}

// TestExp32WithinTwoUlp holds the float32 exponential to its bound against
// math.Exp rounded to float32: a dense walk over the range softmax feeds it
// ([-30, 0]) and GELU does ([-30, 30]), random arguments over the whole
// domain, and the edges. Every argument also goes through the eight-wide
// path at each of the eight lane positions, which must give the scalar
// exp32's bits.
func TestExp32WithinTwoUlp(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var xs []float32
	for x := float32(-30); x <= 30; x += 1.0 / 4096 {
		xs = append(xs, x)
	}
	for i := 0; i < 400000; i++ {
		xs = append(xs, float32(rng.Float64()*176-87.5))
		xs = append(xs, math.Float32frombits(rng.Uint32()&^0x40000000)) // every magnitude below 2
	}
	xs = append(xs, 1e-30, -1e-30)
	xs = append(xs, specials...)
	for _, x := range xs {
		want := float32(math.Exp(float64(x)))
		if want < 0x1p-126 || math.IsInf(float64(want), 0) || x != x {
			continue // outside the bound's range: subnormal, overflowed or NaN
		}
		if got := exp32(x); ulps(got, want) > 2 {
			t.Fatalf("exp32(%v) = %v, want %v (%d ulp)", x, got, want, ulps(got, want))
		}
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
	withAsm(t, func(t *testing.T) {
		got := make([]float32, len(xs))
		for lane := 0; lane < 8; lane++ {
			exp32x8(got[lane:], xs[lane:])
			for i, x := range xs[lane:] {
				if want := exp32(x); !same(got[lane+i], want) {
					t.Fatalf("eight-wide exp32(%v) at lane %d = %v, scalar %v", x, i%8, got[lane+i], want)
				}
			}
		}
	})
}

// TestSoftmaxAndGELUF32AgainstFloat64: the two inference kernels against
// the float64 formulas the training paths compute.
func TestSoftmaxAndGELUF32AgainstFloat64(t *testing.T) {
	withAsm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(22))
		for n := 1; n <= 40; n++ {
			for _, scale := range []float32{1, 0.25, float32(1 / math.Sqrt(12))} {
				const rows = 3
				x := randF32(rng, rows*n)
				for i := range x {
					x[i] *= 4
				}
				want := make([]float64, len(x))
				for r := 0; r < rows; r++ {
					row, w := x[r*n:(r+1)*n], want[r*n:(r+1)*n]
					m, sum := math.Inf(-1), 0.0
					for _, v := range row {
						m = math.Max(m, float64(v*scale))
					}
					for i, v := range row {
						w[i] = math.Exp(float64(v*scale) - m)
						sum += w[i]
					}
					for i := range w {
						w[i] /= sum
					}
				}
				SoftmaxF32(x, rows, n, scale)
				for r := 0; r < rows; r++ {
					var total float64
					for i, got := range x[r*n : (r+1)*n] {
						total += float64(got)
						if d := math.Abs(float64(got) - want[r*n+i]); d > 1e-6 {
							t.Fatalf("softmax n=%d scale=%v row %d [%d] = %v, want %v", n, scale, r, i, got, want[r*n+i])
						}
					}
					if math.Abs(total-1) > 1e-5 {
						t.Fatalf("softmax n=%d row %d sums to %v", n, r, total)
					}
				}
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
	})
}

// layerNormF64 is the float64 LayerNorm the training path computes (and the
// inference paths computed before the float32 kernel): the statistics in
// float64, the affine step in float32.
func layerNormF64(dst, src, gamma, beta []float32, eps float32, d int) {
	for i := 0; i+d <= len(src); i += d {
		row := src[i : i+d]
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
		inv := float32(1 / math.Sqrt(variance+float64(eps)))
		for j, v := range row {
			dst[i+j] = gamma[j]*((v-float32(mean))*inv) + beta[j]
		}
	}
}

// TestLayerNormF32AgainstFloat64: the float32 kernel stays within 1e-5,
// relative, of the float64 statistics it replaces, on rows shaped like the
// models' residual stream (an offset mean, a spread of scales).
func TestLayerNormF32AgainstFloat64(t *testing.T) {
	withAsm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		for _, d := range []int{1, 2, 7, 16, 32, 48, 61, 96, 192} {
			const rows = 16
			src := randF32(rng, rows*d)
			for r := 0; r < rows; r++ {
				mu, sigma := float32(rng.Float64()*4-2), float32(0.5+rng.Float64()*2.5)
				for j := r * d; j < (r+1)*d; j++ {
					src[j] = mu + sigma*src[j]
				}
			}
			gamma, beta := randF32(rng, d), randF32(rng, d)
			got, want := make([]float32, len(src)), make([]float32, len(src))
			LayerNormF32(got, src, gamma, beta, 1e-5, d)
			layerNormF64(want, src, gamma, beta, 1e-5, d)
			for i := range want {
				if diff := math.Abs(float64(got[i] - want[i])); diff > 1e-5*math.Max(1, math.Abs(float64(want[i]))) {
					t.Fatalf("LayerNormF32 d=%d [%d] = %v, float64 statistics give %v", d, i, got[i], want[i])
				}
			}
		}
	})
}

// TestVecmathAsmMatchesGo: AddF32, SoftmaxF32, GELUF32 and LayerNormF32
// give their Go references' bits (NaNs as NaNs) — every length 0–70 at
// every offset 0–7, in place, special values in every lane position, and
// the shapes the models run. No kernel writes outside its output. On a noasm or non-amd64
// build both sides are the reference and this checks the dispatch alone.
func TestVecmathAsmMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	base := randF32(rng, 256)
	for i := range base {
		base[i] *= 3
	}
	// withSpecials is base with the special values placed from lane k on,
	// so each of them meets every lane position across the eight k.
	withSpecials := func(k int) []float32 {
		x := append([]float32(nil), base...)
		for i, v := range specials {
			x[(k+3*i)%len(x)] = v
		}
		return x
	}
	const sentinel = float32(12345.5)
	check := func(t *testing.T, what string, got, want []float32) {
		t.Helper()
		for i := range want {
			if !same(got[i], want[i]) {
				t.Fatalf("%s: [%d] = %v (%#x), reference %v (%#x)", what, i,
					got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
		if got[len(want)] != sentinel {
			t.Fatalf("%s wrote past its output", what)
		}
	}
	withAsm(t, func(t *testing.T) {
		for k := 0; k < 8; k++ {
			src := base
			if k%2 == 1 {
				src = withSpecials(k)
			}
			for off := 0; off < 8; off++ {
				for n := 0; n <= 70; n++ {
					x := src[off : off+n]
					what := fmt.Sprintf("k=%d off=%d n=%d", k, off, n)

					got, want := make([]float32, n+1), make([]float32, n)
					got[n] = sentinel
					GELUF32(got, x)
					geluF32Go(want, x)
					check(t, "GELUF32 "+what, got, want)
					inPlace := append(append([]float32(nil), x...), sentinel)
					GELUF32(inPlace[:n], inPlace[:n])
					check(t, "GELUF32 in place "+what, inPlace, want)

					acc := append(append([]float32(nil), src[(off+3)%8+64:][:n]...), sentinel)
					want = append([]float32(nil), acc[:n]...)
					AddF32(acc, x)
					addF32Go(want, x)
					check(t, "AddF32 "+what, acc, want)

					for _, rows := range []int{1, 2, 3} {
						if rows*n > len(src)-off {
							continue
						}
						m := append(append([]float32(nil), src[off:off+rows*n]...), sentinel)
						ref := append([]float32(nil), m[:rows*n]...)
						SoftmaxF32(m, rows, n, 0.375)
						if n == 0 {
							check(t, fmt.Sprintf("SoftmaxF32 rows=%d %s", rows, what), m, ref)
							continue
						}
						softmaxF32Go(ref, rows, n, 0.375)
						check(t, fmt.Sprintf("SoftmaxF32 rows=%d %s", rows, what), m, ref)

						gamma, beta := src[(off+5)%8:][:n], src[(off+3)%8+64:][:n]
						got, want := make([]float32, rows*n+1), make([]float32, rows*n)
						got[rows*n] = sentinel
						LayerNormF32(got, src[off:off+rows*n], gamma, beta, 1e-5, n)
						layerNormF32Go(want, src[off:off+rows*n], gamma, beta, 1e-5, n)
						check(t, fmt.Sprintf("LayerNormF32 rows=%d %s", rows, what), got, want)
						inPlace := append(append([]float32(nil), src[off:off+rows*n]...), sentinel)
						LayerNormF32(inPlace[:rows*n], inPlace[:rows*n], gamma, beta, 1e-5, n)
						check(t, fmt.Sprintf("LayerNormF32 in place rows=%d %s", rows, what), inPlace, want)
					}
				}
			}
		}
		// The models' shapes: attention's 16-wide score rows (and rows of 1
		// and 64), LayerNorm at the widths 32, 48 and 96, a constant row.
		for _, cols := range []int{1, 16, 64} {
			m := append(randF32(rng, 16*cols), sentinel)
			for i := range m[:16*cols] {
				m[i] *= 5
			}
			ref := append([]float32(nil), m[:16*cols]...)
			scale := float32(1 / math.Sqrt(12))
			SoftmaxF32(m, 16, cols, scale)
			softmaxF32Go(ref, 16, cols, scale)
			check(t, fmt.Sprintf("SoftmaxF32 16x%d", cols), m, ref)
		}
		for _, d := range []int{32, 48, 96} {
			src := randF32(rng, 16*d)
			for j := 0; j < d; j++ {
				src[5*d+j] = 0.7 // a constant row: variance 0
			}
			gamma, beta := randF32(rng, d), randF32(rng, d)
			got, want := make([]float32, 16*d+1), make([]float32, 16*d)
			got[16*d] = sentinel
			LayerNormF32(got, src, gamma, beta, 1e-5, d)
			layerNormF32Go(want, src, gamma, beta, 1e-5, d)
			check(t, fmt.Sprintf("LayerNormF32 16x%d", d), got, want)
		}
	})
}

// The benchmarks walk a buffer too long for the branch predictor to learn:
// a served frame is new data every time.
func BenchmarkSoftmaxF32_16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src, row := randF32(rng, 1<<16), make([]float32, 16)
	for i := 0; i < b.N; i++ {
		copy(row, src[i*16&(1<<16-1):])
		SoftmaxF32(row, 1, 16, 1)
	}
}

// BenchmarkAddF32_16x48 is one frame's residual add in either serving
// model.
func BenchmarkAddF32_16x48(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src, dst := randF32(rng, 1<<16), make([]float32, 16*48)
	for i := 0; i < b.N; i++ {
		AddF32(dst, src[i*768%(1<<16-768):][:768])
	}
}

func BenchmarkGELUF32_1536(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src, dst := randF32(rng, 1<<16), make([]float32, 1536)
	for i := 0; i < b.N; i++ {
		GELUF32(dst, src[i*1536%(1<<16-1536):][:1536])
	}
}

// BenchmarkLayerNormF32_16x48 is one frame's LayerNorm in either serving
// model: 16 token rows of width 48.
func BenchmarkLayerNormF32_16x48(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src, dst := randF32(rng, 1<<16), make([]float32, 16*48)
	gamma, beta := randF32(rng, 48), randF32(rng, 48)
	for i := 0; i < b.N; i++ {
		LayerNormF32(dst, src[i*768%(1<<16-768):][:768], gamma, beta, 1e-5, 48)
	}
}
