package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The int8 kernels' contract: the exported function gives the Go
// reference's bits whichever implementation runs. Every test below compares
// the two under withAsm; on a noasm or non-amd64 build both sides are the
// reference and the tests check it against a naive formula instead.

// naiveGemmI8 is the definition, one product at a time.
func naiveGemmI8(a, w []int8, m, k, n int) []int32 {
	acc := make([]int32, m*n)
	for i := 0; i < m; i++ {
		for o := 0; o < n; o++ {
			var s int32
			for t := 0; t < k; t++ {
				s += int32(a[i*k+t]) * int32(w[o*k+t])
			}
			acc[i*n+o] = s
		}
	}
	return acc
}

// rowSumsI8 is each of the n rows of w summed, GemmI8's wsums.
func rowSumsI8(w []int8, k, n int) []int32 {
	sums := make([]int32, n)
	for o := range sums {
		for _, q := range w[o*k : (o+1)*k] {
			sums[o] += int32(q)
		}
	}
	return sums
}

func checkGemmI8(t *testing.T, a, w []int8, m, k, n int) {
	t.Helper()
	want := naiveGemmI8(a, w, m, k, n)
	got := make([]int32, m*n+1)
	got[m*n] = 0x5a5a5a5a // a store past the last output would clobber this
	GemmI8(got, a, w, rowSumsI8(w, k, n), m, k, n)
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("GemmI8 m=%d k=%d n=%d: acc[%d] = %d, want %d", m, k, n, i, got[i], v)
		}
	}
	if got[m*n] != 0x5a5a5a5a {
		t.Fatalf("GemmI8 m=%d k=%d n=%d wrote past its output", m, k, n)
	}
}

func TestGemmI8EveryShape(t *testing.T) {
	withAsm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for k := 1; k <= 70; k++ {
			for n := 1; n <= 9; n++ {
				m := 1 + (k+n)%3
				checkGemmI8(t, randI8(rng, m*k), randI8(rng, n*k), m, k, n)
			}
		}
		for _, s := range generalistShapes {
			checkGemmI8(t, randI8(rng, 16*s[0]), randI8(rng, s[1]*s[0]), 16, s[0], s[1])
		}
		checkGemmI8(t, nil, nil, 3, 0, 5)   // k = 0: every sum is zero
		GemmI8(nil, nil, nil, nil, 0, 4, 0) // nothing to do, nothing touched
	})
}

// generalistShapes are the int8 generalist's GEMM shapes (k, n) at one
// image's 16 tokens: embed, qkv, proj, the two MLP layers, attention scores
// and context, and the detection head, whose n is not a multiple of four.
var generalistShapes = [][2]int{{192, 48}, {48, 144}, {48, 48}, {48, 96}, {96, 48}, {12, 16}, {16, 12}, {48, 19}}

func TestGemmI8UnalignedAndExtremes(t *testing.T) {
	withAsm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		const m, k, n = 3, 37, 7
		abase, wbase := randI8(rng, m*k+16), randI8(rng, n*k+16)
		for off := 0; off < 9; off++ {
			checkGemmI8(t, abase[off:off+m*k], wbase[off+1:off+1+n*k], m, k, n)
		}
		// The extremes, activations and weights each all −128 or all 127,
		// for three activation rows (a last tile of one) against five weight
		// rows (a partial panel). The AVX2 body's widening multiply must hold
		// 128·128 and VPMADDWD's pair sums must not clip. The VNNI body's
		// identity Σ a·w = Σ (a+128)·w − 128·Σ w must hold with the biased
		// activation at 0 and at 255, at every k to 192: each step width and
		// every k mod 4.
		for _, v := range [][2]int8{{-128, -128}, {127, -128}, {-128, 127}, {127, 127}} {
			for k := 1; k <= 192; k++ {
				a, w := make([]int8, 3*k), make([]int8, 5*k)
				for i := range a {
					a[i] = v[0]
				}
				for i := range w {
					w[i] = v[1]
				}
				checkGemmI8(t, a, w, 3, k, 5)
			}
		}
	})
}

// quantizeCase runs QuantizeI8 against the reference over one input.
func quantizeCase(t *testing.T, src []float32, scale float32, zero, lo, hi int32) {
	t.Helper()
	got := make([]int8, len(src)+1)
	got[len(src)] = 0x5a
	QuantizeI8(got, src, 1, len(src), len(src), scale, zero, lo, hi)
	want := make([]int8, len(src))
	quantizeI8Go(want, src, scale, float32(lo-zero), float32(hi-zero), zero)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("QuantizeI8(%v [bits %#x] / %v, zero %d): got %d, reference %d",
				src[i], math.Float32bits(src[i]), scale, zero, got[i], want[i])
		}
		if int32(got[i]) < lo || int32(got[i]) > hi {
			t.Fatalf("QuantizeI8(%v / %v) = %d outside [%d, %d]", src[i], scale, got[i], lo, hi)
		}
	}
	if got[len(src)] != 0x5a {
		t.Fatal("QuantizeI8 wrote past len(src)")
	}
}

func TestQuantizeI8Rule(t *testing.T) {
	withAsm(t, func(t *testing.T) {
		// Ties go to even, both ways; scale 1 and 0.5 keep x/scale exact.
		ties := []float32{0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 126.5, -127.5, 3.5, -3.5, 0.25, 0.75}
		got := make([]int8, len(ties))
		QuantizeI8(got, ties, 1, len(ties), len(ties), 1, 0, -128, 127)
		for i, want := range []int8{0, 2, 2, 0, -2, -2, 126, -128, 4, -4, 0, 1} {
			if got[i] != want {
				t.Errorf("rne(%v) = %d, want %d", ties[i], got[i], want)
			}
		}
		denormal := math.Float32frombits(1)
		special := []float32{
			0, float32(math.Copysign(0, -1)), denormal, -denormal,
			1e30, -1e30, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
			127.49, 127.5, 128, -128.5, -129, 3e9, -3e9, // either side of both clamps and of int32
		}
		for _, zero := range []int32{0, -128, 127, 5, -37} {
			for _, r := range [][2]int32{{-128, 127}, {-32, 31}, {-8, 7}} {
				if zero < r[0] || zero > r[1] {
					continue
				}
				for _, scale := range []float32{1, 0.5, 0.0123, 3e-39, 1e30} {
					quantizeCase(t, ties, scale, zero, r[0], r[1])
					quantizeCase(t, special, scale, zero, r[0], r[1])
				}
			}
		}
		rng := rand.New(rand.NewSource(13))
		for n := 0; n <= 67; n++ {
			base := randF32(rng, n+3)
			quantizeCase(t, base[n%3:n%3+n], 0.017, int32(n%9)-4, -128, 127)
		}
		// A block read in place, rows 1-5 at row stride cols + 0-3: each
		// row's codes are the row's own, packed densely.
		for cols := 1; cols <= 20; cols++ {
			rows, ld := 1+cols%5, cols+cols%4
			src := strided(rng, rows, cols, ld)
			got := make([]int8, rows*cols+1)
			got[rows*cols] = 0x5a
			QuantizeI8(got, src, rows, cols, ld, 0.013, 5, -128, 127)
			for i := 0; i < rows; i++ {
				want := make([]int8, cols)
				quantizeI8Go(want, src[i*ld:i*ld+cols], 0.013, -133, 122, 5)
				for j, w := range want {
					if got[i*cols+j] != w {
						t.Fatalf("QuantizeI8 rows=%d cols=%d ld=%d: code [%d,%d] = %d, reference %d", rows, cols, ld, i, j, got[i*cols+j], w)
					}
				}
			}
			if got[rows*cols] != 0x5a {
				t.Fatalf("QuantizeI8 rows=%d cols=%d wrote past its output", rows, cols)
			}
		}
	})
}

func FuzzQuantizeI8(f *testing.F) {
	if !asmSupported {
		f.Skip("no assembly to compare against on this build")
	}
	f.Add(uint32(0x3f000000), uint32(0x3f800000), int8(0))  // 0.5 / 1
	f.Add(uint32(0x40200000), uint32(0x3f800000), int8(-3)) // 2.5 / 1
	f.Add(uint32(0x7fc00000), uint32(0x3c23d70a), int8(7))  // NaN
	f.Add(uint32(0x7f800000), uint32(0x00000001), int8(0))  // +Inf / denormal
	f.Add(uint32(0x80000000), uint32(0x7f7fffff), int8(1))  // -0 / max float
	f.Add(uint32(0x42fe0000), uint32(0x3f800000), int8(1))  // 127 + zero 1: the upper clamp
	f.Add(uint32(0x00000001), uint32(0x00000001), int8(-1)) // denormal / denormal
	f.Fuzz(func(t *testing.T, xbits, sbits uint32, zero int8) {
		x, scale := math.Float32frombits(xbits), math.Float32frombits(sbits)
		src := []float32{x, -x, x * 3, x / 3, x + 0.5, x - 0.5, x * 127, x * 128, x} // 8 through the full-width step, 1 through the masked tail
		defer SetAsmEnabled(SetAsmEnabled(true))
		quantizeCase(t, src, scale, int32(zero), -128, 127)
	})
}

func TestRangeF32(t *testing.T) {
	withAsm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(14))
		nan := float32(math.NaN())
		for n := 0; n <= 70; n++ {
			base := randF32(rng, n+2)
			x := base[n%2 : n%2+n]
			if n > 3 {
				x[rng.Intn(n)] = nan // skipped wherever it lands
			}
			if n%5 == 0 {
				for i := range x { // one-sided data: the other bound stays 0
					x[i] = float32(math.Abs(float64(x[i])))
				}
			}
			mn, mx := RangeF32(x, 1, n, n)
			wmn, wmx := rangeF32Go(x, 0, 0)
			if math.Float32bits(mn) != math.Float32bits(wmn) || math.Float32bits(mx) != math.Float32bits(wmx) {
				t.Fatalf("RangeF32 n=%d: got (%v, %v), reference (%v, %v)", n, mn, mx, wmn, wmx)
			}
			if mn > 0 || mx < 0 {
				t.Fatalf("RangeF32 n=%d: (%v, %v) does not include 0", n, mn, mx)
			}
		}
		// A block read in place: rows 1-5 at row stride cols + 0-3, NaN in
		// the slack (skipped by the reference, so only a read of it could
		// differ), against the reference over the rows.
		for cols := 1; cols <= 20; cols++ {
			rows, ld := 1+cols%5, cols+cols%4
			x := strided(rng, rows, cols, ld)
			if cols%3 == 0 {
				x[(rows-1)*ld+cols-1] = 1e30 // an extreme in the very last element
			}
			mn, mx := RangeF32(x, rows, cols, ld)
			var wmn, wmx float32
			for i := 0; i < rows; i++ {
				wmn, wmx = rangeF32Go(x[i*ld:i*ld+cols], wmn, wmx)
			}
			if math.Float32bits(mn) != math.Float32bits(wmn) || math.Float32bits(mx) != math.Float32bits(wmx) {
				t.Fatalf("RangeF32 rows=%d cols=%d ld=%d: got (%v, %v), reference (%v, %v)", rows, cols, ld, mn, mx, wmn, wmx)
			}
		}
		// Signed zeros never displace the +0 both bounds start from.
		negz := float32(math.Copysign(0, -1))
		mn, mx := RangeF32([]float32{negz, negz, negz, negz, negz, negz, negz, negz, negz}, 1, 9, 9)
		if math.Float32bits(mn) != 0 || math.Float32bits(mx) != 0 {
			t.Fatalf("RangeF32 of -0s = (%v, %v), want (+0, +0)", mn, mx)
		}
	})
}

// TestQuantizeRowsI8MatchesGo: rows 1–20 against cols 0–70, each at row
// stride cols + 0–3 with NaN in the slack, an all-zero first row, a
// one-signed second row and a NaN, +Inf or plain value planted in the last,
// at hi 127, 31 and 7, give the reference's codes, scales and sums; and the
// reference is each row quantized alone by the symmetric rule (range,
// absMax/hi, QuantizeI8 with zero point 0, the sum of the codes).
func TestQuantizeRowsI8MatchesGo(t *testing.T) {
	withAsm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(16))
		for rows := 1; rows <= 20; rows++ {
			for cols := 0; cols <= 70; cols += 1 + rows%3 {
				ld := cols + (rows+cols)%4
				hi := []int32{127, 31, 7}[(rows+cols)%3]
				src := strided(rng, rows, cols, ld)
				if cols > 0 {
					for j := 0; j < cols; j++ {
						src[j] = 0 // row 0 all zero: scale 1/hi
						if rows > 1 {
							src[ld+j] = float32(math.Abs(float64(src[ld+j]))) // row 1 one-signed
						}
					}
					src[(rows-1)*ld+rng.Intn(cols)] = float32([]float64{math.NaN(), math.Inf(1), 2.5, -0.5}[rows%4])
				}
				got, want := make([]int8, rows*cols+1), make([]int8, rows*cols+1)
				got[rows*cols], want[rows*cols] = 0x5a, 0x5a
				gs, ws := nanFilled(rows), nanFilled(rows)
				gsum, wsum := make([]int32, rows+1), make([]int32, rows+1)
				QuantizeRowsI8(got, gs, gsum, src, rows, cols, ld, hi)
				quantizeRowsI8Go(want, ws, wsum, src, rows, cols, ld, hi)
				what := fmt.Sprintf("rows=%d cols=%d ld=%d hi=%d", rows, cols, ld, hi)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("QuantizeRowsI8 %s: code %d = %d, reference %d", what, i, got[i], want[i])
					}
				}
				for i := range gs {
					if math.Float32bits(gs[i]) != math.Float32bits(ws[i]) || gsum[i] != wsum[i] {
						t.Fatalf("QuantizeRowsI8 %s: row %d scale %v sum %d, reference %v %d", what, i, gs[i], gsum[i], ws[i], wsum[i])
					}
				}
				for i := 0; i < rows; i++ {
					row := src[i*ld : i*ld+cols]
					mn, mx := rangeF32Go(row, 0, 0)
					absMax := max(-mn, mx)
					if absMax == 0 {
						absMax = 1
					}
					codes := make([]int8, cols)
					quantizeI8Go(codes, row, absMax/float32(hi), float32(-hi-1), float32(hi), 0)
					var sum int32
					for j, q := range codes {
						sum += int32(q)
						if want[i*cols+j] != q {
							t.Fatalf("reference %s: code [%d,%d] = %d, the row alone %d", what, i, j, want[i*cols+j], q)
						}
					}
					if ws[i] != absMax/float32(hi) || wsum[i] != sum {
						t.Fatalf("reference %s: row %d scale %v sum %d, the row alone %v %d", what, i, ws[i], wsum[i], absMax/float32(hi), sum)
					}
				}
			}
		}
	})
}

func TestDequantI8(t *testing.T) {
	withAsm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(15))
		for n := 1; n <= 35; n++ {
			for _, perChannel := range []bool{true, false} {
				for _, withBias := range []bool{true, false} {
					m := 1 + n%3
					acc, rowSums := make([]int32, m*n), make([]int32, n)
					for i := range acc {
						acc[i] = int32(rng.Intn(1<<21) - 1<<20)
					}
					for i := range rowSums {
						rowSums[i] = int32(rng.Intn(1<<14) - 1<<13)
					}
					acc[0], rowSums[0] = math.MaxInt32, math.MinInt32 // the subtraction wraps on both sides alike
					scales := randF32(rng, 1)
					if perChannel {
						scales = randF32(rng, n)
					}
					var bias []float32
					if withBias {
						bias = randF32(rng, n)
					}
					sa, za := float32(0.0371), int32(rng.Intn(256)-128)
					ldo := n + n%4 // the rows of out may lie apart: NaN between them must stay
					got, want := nanFilled((m-1)*ldo+n), nanFilled((m-1)*ldo+n)
					DequantI8(got, acc, rowSums, scales, bias, m, n, ldo, sa, za)
					dequantI8Go(want, acc, rowSums, scales, bias, m, n, ldo, sa, za)
					for i := range got {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("DequantI8 n=%d ldo=%d perChannel=%v bias=%v: out[%d] = %v, reference %v",
								n, ldo, perChannel, withBias, i, got[i], want[i])
						}
						if output := i < len(got)-1 && i%ldo < n; output == (got[i] != got[i]) {
							t.Fatalf("DequantI8 n=%d ldo=%d: out[%d] written %v, an output %v", n, ldo, i, got[i] == got[i], output)
						}
					}
					last := (m-1)*ldo + n - 1
					// And the reference is the documented formula.
					sw := scales[0]
					if perChannel {
						sw = scales[n-1]
					}
					f := (sa * sw) * float32(acc[m*n-1]-za*rowSums[n-1])
					if withBias {
						f += bias[n-1]
					}
					if d := math.Abs(float64(f - want[last])); d > 1e-6*math.Abs(float64(f)) {
						t.Fatalf("reference out = %v, formula %v", want[last], f)
					}
				}
			}
		}
	})
}

// TestShortOperandPanics: every assembly entry point checks, in its Go
// wrapper, the lengths it hands to the assembly — a short operand is a
// panic on every build, never a read past the slice.
func TestShortOperandPanics(t *testing.T) {
	f32, i8, i32 := make([]float32, 32), make([]int8, 32), make([]int32, 32)
	var a4 [4]float32
	cases := map[string]func(){
		"Dot":                 func() { Dot(f32, f32[:31]) },
		"Dot4":                func() { Dot4(f32, f32, f32, f32[:31], f32) },
		"Axpy":                func() { Axpy(1, f32, f32[:31]) },
		"Axpy4":               func() { Axpy4(&a4, f32, f32[:31], f32, f32, f32) },
		"DotI8":               func() { DotI8(i8, i8[:31]) },
		"QuantizeI8":          func() { QuantizeI8(i8[:31], f32, 4, 8, 8, 1, 0, -128, 127) },
		"QuantizeI8/src":      func() { QuantizeI8(i8, f32[:31], 4, 8, 8, 1, 0, -128, 127) },
		"QuantizeI8/ld":       func() { QuantizeI8(i8, f32, 4, 8, 7, 1, 0, -128, 127) },
		"RangeF32/x":          func() { RangeF32(f32[:29], 3, 8, 11) },
		"RangeF32/ld":         func() { RangeF32(f32, 1, 8, 7) },
		"QuantizeRowsI8/dst":  func() { QuantizeRowsI8(i8[:31], f32, i32, f32, 4, 8, 8, 127) },
		"QuantizeRowsI8/src":  func() { QuantizeRowsI8(i8, f32, i32, f32[:31], 4, 8, 8, 127) },
		"QuantizeRowsI8/sc":   func() { QuantizeRowsI8(i8, f32[:3], i32, f32, 4, 8, 8, 127) },
		"QuantizeRowsI8/sums": func() { QuantizeRowsI8(i8, f32, i32[:3], f32, 4, 8, 8, 127) },
		"QuantizeRowsI8/ld":   func() { QuantizeRowsI8(i8, f32, i32, f32, 4, 8, 7, 127) },
		"QuantizeRowsI8/hi":   func() { QuantizeRowsI8(i8, f32, i32, f32, 4, 8, 8, 128) },
		"GemmF32/a":           func() { GemmF32(f32, f32[:31], f32, nil, 2, 16, 2, 2, 16, 16) },
		"GemmF32/w":           func() { GemmF32(f32, f32, f32[:31], nil, 2, 16, 2, 2, 16, 16) },
		"GemmF32/c":           func() { GemmF32(f32[:3], f32, f32, nil, 2, 16, 2, 2, 16, 16) },
		"GemmF32/bias":        func() { GemmF32(f32, f32, f32, f32[:1], 2, 16, 2, 2, 16, 16) },
		"GemmF32/lda":         func() { GemmF32(f32, f32, f32, nil, 2, 16, 2, 2, 15, 16) },
		"GemmF32/ldw":         func() { GemmF32(f32, f32, f32, nil, 2, 16, 2, 2, 16, 15) },
		"GemmF32/ldc":         func() { GemmF32(f32, f32, f32, nil, 2, 16, 2, 1, 16, 16) },
		"GemmF32/strided":     func() { GemmF32(f32, f32, f32, nil, 2, 16, 2, 2, 17, 16) },
		"GemmI8/a":            func() { GemmI8(i32, i8[:31], i8, i32, 2, 16, 2) },
		"GemmI8/w":            func() { GemmI8(i32, i8, i8[:31], i32, 2, 16, 2) },
		"GemmI8/wsums":        func() { GemmI8(i32, i8, i8, i32[:1], 2, 16, 2) },
		"GemmI8/acc":          func() { GemmI8(i32[:3], i8, i8, i32, 2, 16, 2) },
		"AddF32":              func() { AddF32(f32[:31], f32) },
		"DequantI8/out":       func() { DequantI8(f32[:31], i32, i32, f32, nil, 4, 8, 8, 1, 0) },
		"DequantI8/rowSums":   func() { DequantI8(f32, i32, i32[:7], f32, nil, 4, 8, 8, 1, 0) },
		"DequantI8/scales":    func() { DequantI8(f32, i32, i32, f32[:7], nil, 4, 8, 8, 1, 0) },
		"DequantI8/bias":      func() { DequantI8(f32, i32, i32, f32, f32[:7], 4, 8, 8, 1, 0) },
		"DequantI8/noscales":  func() { DequantI8(f32, i32, i32, nil, nil, 4, 8, 8, 1, 0) },
		"DequantI8/ldo":       func() { DequantI8(f32, i32, i32, f32, nil, 4, 8, 7, 1, 0) },
		"DequantI8/strided":   func() { DequantI8(f32, i32, i32, f32, nil, 4, 8, 9, 1, 0) },
		"GELUF32":             func() { GELUF32(f32[:31], f32) },
		"SoftmaxF32":          func() { SoftmaxF32(f32[:31], 4, 8, 1) },
		"LayerNormF32/dst":    func() { LayerNormF32(f32[:31], f32, f32, f32, 1e-5, 8) },
		"LayerNormF32/src":    func() { LayerNormF32(f32, f32[:31], f32, f32, 1e-5, 8) },
		"LayerNormF32/gamma":  func() { LayerNormF32(f32, f32, f32[:7], f32, 1e-5, 8) },
		"LayerNormF32/beta":   func() { LayerNormF32(f32, f32, f32, f32[:7], 1e-5, 8) },
	}
	withAsm(t, func(t *testing.T) {
		for name, call := range cases {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with a short operand did not panic", name)
					}
				}()
				call()
			}()
		}
	})
}

// BenchmarkGemmI8 runs every generalist shape at one image's 16 tokens,
// and qkv at a batch of eight, on each body the host has.
func BenchmarkGemmI8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][3]int{{128, 48, 144}}
	for _, s := range generalistShapes {
		shapes = append(shapes, [3]int{16, s[0], s[1]})
	}
	for _, bd := range bodies {
		if !bd.have {
			continue
		}
		for _, s := range shapes {
			m, k, n := s[0], s[1], s[2]
			a, w, acc := randI8(rng, m*k), randI8(rng, n*k), make([]int32, m*n)
			wsums := rowSumsI8(w, k, n)
			b.Run(fmt.Sprintf("%s/%dx%dx%d", bd.name, m, k, n), func(b *testing.B) {
				defer bd.use()()
				for i := 0; i < b.N; i++ {
					GemmI8(acc, a, w, wsums, m, k, n)
				}
				b.ReportMetric(float64(m*k*n)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GMAC/s")
			})
		}
	}
}

func BenchmarkQuantizeI8_768(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src, dst := randF32(rng, 768), make([]int8, 768)
	for i := 0; i < b.N; i++ {
		mn, mx := RangeF32(src, 1, 768, 768)
		QuantizeI8(dst, src, 1, 768, 768, (mx-mn)/255, 3, -128, 127)
	}
}

// BenchmarkQuantizeRowsI8 is one head operand of the int8 generalist's
// attention: its 16 keys, 12 wide, read in place in the qkv projection.
func BenchmarkQuantizeRowsI8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const rows, cols, ld = 16, 12, 144
	src := randF32(rng, (rows-1)*ld+cols)
	dst, scales, sums := make([]int8, rows*cols), make([]float32, rows), make([]int32, rows)
	for i := 0; i < b.N; i++ {
		QuantizeRowsI8(dst, scales, sums, src, rows, cols, ld, 127)
	}
}
