package kernels

import "math"

// The int8 layers run on four micro-kernels: a range scan plus quantize
// (float activations to int8 codes), a per-row symmetric quantize (a block
// of floats to weight codes, one scale per row), a row-panel GEMM (int8
// codes to int32 sums) and a dequantizing epilogue (int32 sums to float
// outputs). Each has an AVX2 body and a Go reference that computes the same
// bits: the integer sums are exact, and every float step is one correctly
// rounded IEEE single operation on both sides — no fused multiply-add, no
// reciprocal, no reassociation — so the assembly, the noasm build and a
// non-amd64 host agree on every output. The float kernels read their
// operand as a (rows, cols) block at row stride ld, so attention's per-head
// blocks are read in place; codes are written densely, row after row.

// RangeF32 returns the smallest and largest element of the (rows, cols)
// block x at row stride ld (row i is x[i*ld : i*ld+cols]), each taken
// together with 0 (a quantization range always includes zero). NaNs are
// skipped.
func RangeF32(x []float32, rows, cols, ld int) (mn, mx float32) {
	need(fits(len(x), rows, cols, ld))
	if rows == 0 || cols == 0 {
		return 0, 0
	}
	if useAsm {
		return rangeF32Asm(&x[0], rows, cols, ld)
	}
	for i := 0; i < rows; i++ {
		mn, mx = rangeF32Go(x[i*ld:i*ld+cols], mn, mx)
	}
	return mn, mx
}

func rangeF32Go(x []float32, mn, mx float32) (float32, float32) {
	for _, v := range x {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

// QuantizeI8 quantizes the (rows, cols) block src at row stride ld into
// the rows·cols codes dst, row after row, by the one rounding rule of the
// quantized configuration: dst = clamp(rne(src/scale) + zero, lo, hi) — a
// float32 division, round to nearest with ties to even, then the zero
// point, clamped to [lo, hi] (which must lie within int8). A NaN quotient
// maps to lo.
func QuantizeI8(dst []int8, src []float32, rows, cols, ld int, scale float32, zero, lo, hi int32) {
	need(fits(len(src), rows, cols, ld) && len(dst) >= rows*cols)
	if rows == 0 || cols == 0 {
		return
	}
	// Clamping the quotient to [lo-zero, hi-zero] before rounding equals
	// clamping the code after it (the bounds are integers and rounding is
	// monotonic), and keeps the float-to-int conversion in range.
	fl, fh := float32(lo-zero), float32(hi-zero)
	if useAsm {
		quantizeI8Asm(&dst[0], &src[0], rows, cols, ld, scale, fl, fh, zero)
		return
	}
	for i := 0; i < rows; i++ {
		quantizeI8Go(dst[i*cols:(i+1)*cols], src[i*ld:i*ld+cols], scale, fl, fh, zero)
	}
}

func quantizeI8Go(dst []int8, src []float32, scale, fl, fh float32, zero int32) {
	dst = dst[:len(src)]
	for i, x := range src {
		t := x / scale
		if !(t >= fl) { // also catches NaN
			t = fl
		}
		if t > fh {
			t = fh
		}
		dst[i] = int8(int32(math.RoundToEven(float64(t))) + zero)
	}
}

// QuantizeRowsI8 quantizes each row of the (rows, cols) block src at row
// stride ld as one channel of a symmetric weight, in one pass over the
// block: the row's range with 0, its absolute maximum (1 when that is 0),
// scales[i] = absMax/hi, the codes by QuantizeI8's rule with zero point 0
// into [−hi−1, hi] (dst, rows·cols codes row after row), and
// sums[i] = Σ of the row's codes. It gives the bits of a symmetric
// RangeF32 + QuantizeI8 + sum over each row alone. hi must be in [1, 127].
func QuantizeRowsI8(dst []int8, scales []float32, sums []int32, src []float32, rows, cols, ld int, hi int32) {
	need(fits(len(src), rows, cols, ld) && len(dst) >= rows*cols && len(scales) >= rows && len(sums) >= rows &&
		hi >= 1 && hi <= 127)
	if rows == 0 {
		return
	}
	if useAsm && cols > 0 {
		quantizeRowsI8Asm(&dst[0], &scales[0], &sums[0], &src[0], rows, cols, ld, float32(-hi-1), float32(hi))
		return
	}
	quantizeRowsI8Go(dst, scales, sums, src, rows, cols, ld, hi)
}

func quantizeRowsI8Go(dst []int8, scales []float32, sums []int32, src []float32, rows, cols, ld int, hi int32) {
	for i := 0; i < rows; i++ {
		row, codes := src[i*ld:i*ld+cols], dst[i*cols:(i+1)*cols]
		mn, mx := rangeF32Go(row, 0, 0)
		absMax := max(-mn, mx)
		if absMax == 0 {
			absMax = 1 // an all-zero row: any scale works; avoid dividing by zero
		}
		scale := absMax / float32(hi)
		quantizeI8Go(codes, row, scale, float32(-hi-1), float32(hi), 0)
		var s int32
		for _, q := range codes {
			s += int32(q)
		}
		scales[i], sums[i] = scale, s
	}
}

// GemmI8 computes the (m,n) int32 product of an (m,k) int8 activation a
// with the transpose of an (n,k) int8 weight w, both row-major:
//
//	acc[i*n+o] = Σ_t int32(a[i*k+t]) * int32(w[o*k+t])
//
// wsums must hold each weight row's sum, wsums[o] = Σ_t w[o*k+t] (the
// RowSums a quantized weight carries); the VNNI body's answer depends on it.
//
// Both assembly bodies take two activation rows against four weight rows
// per step, for any k and any n. The AVX2 body widens 16 codes with
// VPMOVSXBW and multiplies and pair-sums them into eight int32 lanes with
// VPMADDWD. The VNNI body sums four u8×s8 products into each of eight
// int32 lanes with one VPDPBUSD, 32 codes a step; its unsigned operand is
// the activation biased by 128 (a XOR 0x80), so it computes
// Σ_t (a+128)·w = Σ_t a·w + 128·wsums[o] and subtracts 128·wsums[o]. Every
// code, the k mod 4 last ones included, goes through the biased sum, and
// int32 arithmetic wraps alike on both sides, so the answer is the exact
// sum either way.
func GemmI8(acc []int32, a, w []int8, wsums []int32, m, k, n int) {
	need(m >= 0 && k >= 0 && n >= 0 && len(a) >= m*k && len(w) >= n*k && len(wsums) >= n && len(acc) >= m*n)
	if m == 0 || n == 0 {
		return
	}
	switch {
	case k == 0 || !useAsm:
		gemmI8Go(acc, a, w, m, k, n)
	case useVNNI:
		gemmI8VNNIAsm(&acc[0], &a[0], &w[0], &wsums[0], m, k, n)
	default:
		gemmI8Asm(&acc[0], &a[0], &w[0], m, k, n)
	}
}

func gemmI8Go(acc []int32, a, w []int8, m, k, n int) {
	for i := 0; i < m; i++ {
		ai := a[i*k : (i+1)*k]
		oi := acc[i*n : (i+1)*n]
		for o := range oi {
			oi[o] = dotI8Go(ai, w[o*k:(o+1)*k])
		}
	}
}

// DequantI8 is the GEMM's epilogue: it removes the activation zero point,
// rescales and adds the bias, for an (m,n) accumulator, into out at row
// stride ldo:
//
//	out[i*ldo+o] = (sa*scales[o]) * float32(acc[i*n+o] - za*rowSums[o]) + bias[o]
//
// scales holds n per-channel weight scales or one per-tensor scale; rowSums
// holds Σ_t w[o*k+t] for each weight row; bias is nil or n values. The
// integer subtraction wraps as int32 does.
func DequantI8(out []float32, acc, rowSums []int32, scales, bias []float32, m, n, ldo int, sa float32, za int32) {
	need(fits(len(out), m, n, ldo) && m >= 0 && n >= 0 && len(acc) >= m*n && len(rowSums) >= n &&
		(len(scales) == 1 || len(scales) >= n) && (bias == nil || len(bias) >= n))
	if m == 0 || n == 0 {
		return
	}
	if useAsm {
		var b *float32
		if bias != nil {
			b = &bias[0]
		}
		perChannel := 0
		if len(scales) != 1 {
			perChannel = 1
		}
		dequantI8Asm(&out[0], &acc[0], &rowSums[0], &scales[0], b, m, n, ldo, sa, za, perChannel)
		return
	}
	dequantI8Go(out, acc, rowSums, scales, bias, m, n, ldo, sa, za)
}

func dequantI8Go(out []float32, acc, rowSums []int32, scales, bias []float32, m, n, ldo int, sa float32, za int32) {
	for i := 0; i < m; i++ {
		ai := acc[i*n : (i+1)*n]
		oi := out[i*ldo : i*ldo+n]
		for o, s := range ai {
			sw := scales[0]
			if len(scales) != 1 {
				sw = scales[o]
			}
			// The conversions pin each product to float32 before the next
			// operation, so no compiler may fuse the multiply into the add.
			v := float32(float32(sa*sw) * float32(s-za*rowSums[o]))
			if bias != nil {
				v += bias[o]
			}
			oi[o] = v
		}
	}
}
