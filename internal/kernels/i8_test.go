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

// naiveGemmI8 is the integer product, one product at a time, of a (m,k)
// and the transpose of a row-major (n,k) w.
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

// packed is w packed by PackI8 into panels first filled with garbage, so a
// pack that skips its padding shows.
func packed(w []int8, n, k int) []int8 {
	wp := make([]int8, PanelLenI8(n, k))
	for i := range wp {
		wp[i] = 0x5a
	}
	PackI8(wp, w, n, k)
	return wp
}

// canary marks every float of out that is not an output: GemmI8 must leave
// it as it is.
var canary = math.Float32frombits(0x7fc0dead)

// gemmCase is one GemmI8 call: a row-major weight w, its epilogue and the
// layout of out.
type gemmCase struct {
	a, w         []int8
	m, k, n, ldo int
	scales, bias []float32
	sa           float32
	za           int32
}

// check runs the case against the naive integer product followed by
// dequantI8Go's expression, bit for bit, with a canary after every row's
// last output and after the last row.
func (c gemmCase) check(t *testing.T) {
	t.Helper()
	out := make([]float32, (c.m-1)*c.ldo+c.n+1)
	for i := range out {
		out[i] = canary
	}
	wsums := rowSumsI8(c.w, c.k, c.n)
	GemmI8(out, c.ldo, c.a, packed(c.w, c.n, c.k), wsums, c.scales, c.bias, c.m, c.k, c.n, c.sa, c.za)
	acc := naiveGemmI8(c.a, c.w, c.m, c.k, c.n)
	for i := range out {
		want, row, o := canary, i/c.ldo, i%c.ldo
		if row < c.m && o < c.n {
			want = dequantI8Go(acc[row*c.n+o], o, wsums, c.scales, c.bias, c.sa, c.za)
		}
		if math.Float32bits(out[i]) != math.Float32bits(want) {
			t.Fatalf("GemmI8 m=%d k=%d n=%d ldo=%d scales=%d bias=%v za=%d: out[%d] = %v (%#x), want %v (%#x)",
				c.m, c.k, c.n, c.ldo, len(c.scales), c.bias != nil, c.za, i, out[i], math.Float32bits(out[i]), want, math.Float32bits(want))
		}
	}
}

// randGemmCase draws codes, per-channel or per-tensor scales, a bias or
// none, and za among −128, 127 and in between.
func randGemmCase(rng *rand.Rand, m, k, n int) gemmCase {
	c := gemmCase{a: randI8(rng, m*k), w: randI8(rng, n*k), m: m, k: k, n: n, ldo: n + 1 + rng.Intn(9),
		sa: 0.003 + rng.Float32()/50, za: []int32{-128, 127, int32(rng.Intn(256) - 128)}[rng.Intn(3)]}
	c.scales = randF32(rng, 1)
	if rng.Intn(2) == 0 {
		c.scales = randF32(rng, n)
	}
	if rng.Intn(2) == 0 {
		c.bias = randF32(rng, n)
	}
	return c
}

// generalistShapes are the int8 generalist's GEMM shapes (k, n) at one
// image's 16 tokens: embed, qkv, proj, the two MLP layers, attention scores
// and context, and the detection head, whose n is not a multiple of eight.
var generalistShapes = [][2]int{{192, 48}, {48, 144}, {48, 48}, {48, 96}, {96, 48}, {12, 16}, {16, 12}, {48, 19}}

// TestGemmI8EveryShape: every k from 1 to 70 and 96, 192 — each k mod 4
// tail — against m 1–9, 16, 17 (partial row tiles) and n 1–40, 48, 96, 144,
// 150 (partial panels and blocks), each (m, n) pair at several k, and every
// pair at the generalist's k.
func TestGemmI8EveryShape(t *testing.T) {
	ks := []int{96, 192}
	for k := 1; k <= 70; k++ {
		ks = append(ks, k)
	}
	ms := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17}
	ns := []int{48, 96, 144, 150}
	for n := 1; n <= 40; n++ {
		ns = append(ns, n)
	}
	withAsm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for ki, k := range ks {
			for mi, m := range ms {
				for _, j := range []int{ki*len(ms) + mi, ki*7 + mi*13 + 5} {
					randGemmCase(rng, m, k, ns[j%len(ns)]).check(t)
				}
			}
		}
		for _, k := range []int{12, 16, 48} {
			for _, m := range ms {
				for _, n := range ns {
					randGemmCase(rng, m, k, n).check(t)
				}
			}
		}
		for _, s := range generalistShapes {
			randGemmCase(rng, 16, s[0], s[1]).check(t)
		}
		randGemmCase(rng, 3, 0, 5).check(t)                             // k = 0: every sum is zero
		GemmI8(nil, 0, nil, nil, nil, []float32{1}, nil, 0, 4, 0, 1, 0) // nothing to do, nothing touched
	})
}

// TestGemmI8UnalignedAndExtremes: operands at every offset, and the
// extremes — activations and weights each all −128 or all 127, za at −128
// and 127, for five activation rows (a partial tile) against eleven weight
// rows (a partial panel and block) at every k to 192. The AVX2 body's
// widening multiply must hold 128·128, and the VNNI body's identity
// Σ a·w − za·Σ w = Σ (a+128)·w − (128+za)·Σ w must hold with the biased
// activation at 0 and 255.
func TestGemmI8UnalignedAndExtremes(t *testing.T) {
	withAsm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		const m, k, n = 3, 37, 7
		abase, wbase := randI8(rng, m*k+16), randI8(rng, n*k+16)
		for off := 0; off < 9; off++ {
			c := randGemmCase(rng, m, k, n)
			c.a, c.w = abase[off:off+m*k], wbase[off+1:off+1+n*k]
			c.check(t)
		}
		for _, v := range [][2]int8{{-128, -128}, {127, -128}, {-128, 127}, {127, 127}} {
			for k := 1; k <= 192; k++ {
				c := randGemmCase(rng, 5, k, 11)
				for i := range c.a {
					c.a[i] = v[0]
				}
				for i := range c.w {
					c.w[i] = v[1]
				}
				c.za = []int32{-128, 127}[k%2]
				c.check(t)
			}
		}
	})
}

// TestGemmI8Epilogue: the store is dequantI8Go's expression in its order
// for per-channel and per-tensor scales, with and without a bias, at scales
// that round, underflow and overflow; and dequantI8Go is the documented
// formula.
func TestGemmI8Epilogue(t *testing.T) {
	withAsm(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(15))
		for n := 1; n <= 35; n++ {
			for _, perChannel := range []bool{true, false} {
				for _, withBias := range []bool{true, false} {
					c := randGemmCase(rng, 1+n%5, 5+n%13, n)
					c.scales, c.bias = randF32(rng, 1), nil
					if perChannel {
						c.scales = randF32(rng, n)
					}
					if withBias {
						c.bias = randF32(rng, n)
					}
					c.scales[0] = []float32{3e-39, 1e30, 0.0371, -2}[n%4]
					c.check(t)
				}
			}
		}
		c := randGemmCase(rng, 2, 9, 3)
		wsums := rowSumsI8(c.w, c.k, c.n)
		s := naiveGemmI8(c.a, c.w, c.m, c.k, c.n)[c.n-1]
		c.bias = randF32(rng, c.n)
		f := (c.sa*c.scales[len(c.scales)-1])*float32(s-c.za*wsums[c.n-1]) + c.bias[c.n-1]
		if got := dequantI8Go(s, c.n-1, wsums, c.scales, c.bias, c.sa, c.za); math.Abs(float64(got-f)) > 1e-6*math.Abs(float64(f)) {
			t.Fatalf("dequantI8Go = %v, formula %v", got, f)
		}
	})
}

// TestPackI8RoundTrip: every code lands at its panel place, and the k
// padding and a partial panel's missing rows are zero.
func TestPackI8RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for n := 0; n <= 19; n++ {
		for k := 0; k <= 13; k++ {
			w := randI8(rng, n*k)
			wp := packed(w, n, k)
			kp := (k + 3) &^ 3
			if len(wp) != (n+7)/8*8*kp {
				t.Fatalf("PanelLenI8(%d, %d) = %d", n, k, len(wp))
			}
			seen := make([]bool, len(wp))
			for o := 0; o < n; o++ {
				for c := 0; c < k; c++ {
					i := o/8*8*kp + c/4*32 + o%8*4 + c%4
					if wp[i] != w[o*k+c] {
						t.Fatalf("n=%d k=%d: code (%d,%d) at %d is %d, want %d", n, k, o, c, i, wp[i], w[o*k+c])
					}
					seen[i] = true
				}
			}
			for i, q := range wp {
				if !seen[i] && q != 0 {
					t.Fatalf("n=%d k=%d: padding byte %d is %d", n, k, i, q)
				}
			}
		}
	}
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
// at hi 127, 31 and 7, give the reference's panels, scales and sums; and
// the reference is each row quantized alone by the symmetric rule (range,
// absMax/hi, QuantizeI8 with zero point 0, the sum of the codes), its codes
// at their panel places and its k padding zero, a partial panel's missing
// rows left as they were.
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
				size := PanelLenI8(rows, cols)
				got, want := make([]int8, size+1), make([]int8, size+1)
				for i := range got {
					got[i], want[i] = 0x5a, 0x5a // unwritten bytes keep it
				}
				gs, ws := nanFilled(rows), nanFilled(rows)
				gsum, wsum := make([]int32, rows+1), make([]int32, rows+1)
				QuantizeRowsI8(got, gs, gsum, src, rows, cols, ld, hi)
				quantizeRowsI8Go(want, ws, wsum, src, rows, cols, ld, hi)
				what := fmt.Sprintf("rows=%d cols=%d ld=%d hi=%d", rows, cols, ld, hi)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("QuantizeRowsI8 %s: panel byte %d = %d, reference %d", what, i, got[i], want[i])
					}
				}
				for i := range gs {
					if math.Float32bits(gs[i]) != math.Float32bits(ws[i]) || gsum[i] != wsum[i] {
						t.Fatalf("QuantizeRowsI8 %s: row %d scale %v sum %d, reference %v %d", what, i, gs[i], gsum[i], ws[i], wsum[i])
					}
				}
				kp := (cols + 3) &^ 3
				written := make([]bool, size+1)
				for i := 0; i < rows; i++ {
					row := src[i*ld : i*ld+cols]
					mn, mx := rangeF32Go(row, 0, 0)
					absMax := max(-mn, mx)
					if absMax == 0 {
						absMax = 1
					}
					codes := make([]int8, kp)
					quantizeI8Go(codes[:cols], row, absMax/float32(hi), float32(-hi-1), float32(hi), 0)
					var sum int32
					for j, q := range codes { // the padding past cols is 0
						at := i/8*8*kp + j/4*32 + i%8*4 + j%4
						sum += int32(q)
						written[at] = true
						if want[at] != q {
							t.Fatalf("reference %s: code [%d,%d] = %d, the row alone %d", what, i, j, want[at], q)
						}
					}
					if ws[i] != absMax/float32(hi) || wsum[i] != sum {
						t.Fatalf("reference %s: row %d scale %v sum %d, the row alone %v %d", what, i, ws[i], wsum[i], absMax/float32(hi), sum)
					}
				}
				for i, q := range want {
					if !written[i] && q != 0x5a {
						t.Fatalf("reference %s: wrote byte %d outside its rows", what, i)
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
		"GemmI8/a":            func() { GemmI8(f32, 2, i8[:31], i8, i32, f32, nil, 2, 16, 2, 1, 0) },
		"GemmI8/wp":           func() { GemmI8(f32, 2, i8, i8[:31], i32, f32, nil, 2, 8, 2, 1, 0) },
		"GemmI8/wsums":        func() { GemmI8(f32, 2, i8, i8, i32[:1], f32, nil, 2, 4, 2, 1, 0) },
		"GemmI8/out":          func() { GemmI8(f32[:3], 2, i8, i8, i32, f32, nil, 2, 4, 2, 1, 0) },
		"GemmI8/ldo":          func() { GemmI8(f32, 1, i8, i8, i32, f32, nil, 2, 4, 2, 1, 0) },
		"GemmI8/strided":      func() { GemmI8(f32, 31, i8, i8, i32, f32, nil, 2, 4, 2, 1, 0) },
		"GemmI8/scales":       func() { GemmI8(f32, 4, i8, i8, i32, f32[:3], nil, 2, 4, 4, 1, 0) },
		"GemmI8/noscales":     func() { GemmI8(f32, 4, i8, i8, i32, nil, nil, 2, 4, 4, 1, 0) },
		"GemmI8/bias":         func() { GemmI8(f32, 4, i8, i8, i32, f32, f32[:3], 2, 4, 4, 1, 0) },
		"PackI8/dst":          func() { PackI8(i8[:31], i8, 2, 13) },
		"PackI8/w":            func() { PackI8(i8, i8[:7], 2, 4) },
		"AddF32":              func() { AddF32(f32[:31], f32) },
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
// and qkv at a batch of eight, on each body the host has: the product and
// its epilogue, per-channel scales and a bias.
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
			c := randGemmCase(rng, m, k, n)
			c.scales, c.bias = randF32(rng, n), randF32(rng, n)
			wp, wsums, out := packed(c.w, n, k), rowSumsI8(c.w, k, n), make([]float32, m*n)
			b.Run(fmt.Sprintf("%s/%dx%dx%d", bd.name, m, k, n), func(b *testing.B) {
				defer bd.use()()
				for i := 0; i < b.N; i++ {
					GemmI8(out, n, c.a, wp, wsums, c.scales, c.bias, m, k, n, c.sa, c.za)
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
	dst, scales, sums := make([]int8, PanelLenI8(rows, cols)), make([]float32, rows), make([]int32, rows)
	for i := 0; i < b.N; i++ {
		QuantizeRowsI8(dst, scales, sums, src, rows, cols, ld, 127)
	}
}
