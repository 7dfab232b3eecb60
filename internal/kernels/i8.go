package kernels

import "math"

// The int8 layers run on three micro-kernels: a range scan plus quantize
// (float activations to int8 codes), a per-row symmetric quantize (a block
// of floats to weight codes in GemmI8's panels, one scale per row) and a
// panel GEMM whose store is the dequantizing epilogue (int8 codes to float
// outputs). Each has an AVX2 body and a Go reference that computes the same
// bits: the integer sums are exact, and every float step is one correctly
// rounded IEEE single operation on both sides — no fused multiply-add, no
// reciprocal, no reassociation — so the assembly, the noasm build and a
// non-amd64 host agree on every output. The float kernels read their
// operand as a (rows, cols) block at row stride ld, so attention's per-head
// blocks are read in place.

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
		dst[i] = quantizeI8One(x, scale, fl, fh, zero)
	}
}

// quantizeI8One is QuantizeI8's rule for one value, the quotient clamped to
// [fl, fh] before rounding.
func quantizeI8One(x, scale, fl, fh float32, zero int32) int8 {
	t := x / scale
	if !(t >= fl) { // also catches NaN
		t = fl
	}
	if t > fh {
		t = fh
	}
	return int8(int32(math.RoundToEven(float64(t))) + zero)
}

// GemmI8's weight operand is packed in panels. A panel is 8 weight rows
// (output channels); for each group of 4 k it holds 32 bytes, row j's 4
// codes at bytes 4j…4j+3, so one 32-byte load is a 4-k step of 8 outputs.
// k is padded with zero codes to a multiple of 4 (the VNNI body multiplies
// the padding by its biased activation, so it must be zero). A last partial
// panel's missing rows are padding whose outputs are never stored.

// PanelLenI8 is the length of n weight rows of k codes packed in panels.
func PanelLenI8(n, k int) int { return (n + 7) / 8 * 8 * ((k + 3) &^ 3) }

// panelAt is the index in a panel block, padded k kp, of row o's code t.
func panelAt(o, t, kp int) int { return o/8*8*kp + t/4*32 + o%8*4 + t%4 }

// PackI8 writes the (n, k) row-major codes w as panels into dst, its
// padding zero.
func PackI8(dst, w []int8, n, k int) {
	need(n >= 0 && k >= 0 && len(w) >= n*k && len(dst) >= PanelLenI8(n, k))
	kp := (k + 3) &^ 3
	clear(dst[:PanelLenI8(n, k)])
	for o := 0; o < n; o++ {
		for t, q := range w[o*k : (o+1)*k] {
			dst[panelAt(o, t, kp)] = q
		}
	}
}

// QuantizeRowsI8 quantizes each row of the (rows, cols) block src at row
// stride ld as one channel of a symmetric weight, in one pass over the
// block: the row's range with 0, its absolute maximum (1 when that is 0),
// scales[i] = absMax/hi, the codes by QuantizeI8's rule with zero point 0
// into [−hi−1, hi], and sums[i] = Σ of the row's codes. The codes go to dst
// as GemmI8's panels (PanelLenI8(rows, cols) codes), each row's k padding
// zero; a last partial panel's missing rows are not written. It gives the
// bits of a symmetric RangeF32 + QuantizeI8 + sum over each row alone. hi
// must be in [1, 127].
func QuantizeRowsI8(dst []int8, scales []float32, sums []int32, src []float32, rows, cols, ld int, hi int32) {
	need(fits(len(src), rows, cols, ld) && len(dst) >= PanelLenI8(rows, cols) && len(scales) >= rows && len(sums) >= rows &&
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
	kp := (cols + 3) &^ 3
	for i := 0; i < rows; i++ {
		row := src[i*ld : i*ld+cols]
		mn, mx := rangeF32Go(row, 0, 0)
		absMax := max(-mn, mx)
		if absMax == 0 {
			absMax = 1 // an all-zero row: any scale works; avoid dividing by zero
		}
		scale := absMax / float32(hi)
		var s int32
		for t := 0; t < kp; t++ {
			var q int8
			if t < cols {
				q = quantizeI8One(row[t], scale, float32(-hi-1), float32(hi), 0)
			}
			dst[panelAt(i, t, kp)] = q
			s += int32(q)
		}
		scales[i], sums[i] = scale, s
	}
}

// GemmI8 is the int8 linear layer's product and epilogue in one kernel: an
// (m,k) int8 activation a (row-major, zero point za, scale sa) times the
// transpose of an (n,k) weight packed in panels wp (PackI8), each output
// dequantized into out at row stride ldo:
//
//	s = Σ_t int32(a[i*k+t]) * int32(w[o][t])
//	out[i*ldo+o] = (sa*sw[o]) * float32(s − za*wsums[o]) + bias[o]
//
// wsums[o] = Σ_t w[o][t]; scales holds n per-channel weight scales or one
// per-tensor scale; bias is nil (no add) or n values. The integer sums are
// exact and wrap as int32 does, and the float steps are dequantI8Go's, one
// IEEE operation each in its order, so every body gives the same bits.
//
// Each body takes a tile of 4 activation rows against a block of panels
// and, per 4-k step, broadcasts a row's four codes against a whole panel,
// so every accumulator lane is one output and no lane is reduced across.
// The VNNI body's products are VPDPBUSD's u8×s8 with the activation XOR
// 0x80 (a + 128) as the unsigned operand, so its sums are s + 128·wsums[o]
// and its store subtracts (128 + za)·wsums[o] in wrapping int32 — the
// reference's two subtractions. The AVX2 body widens a panel step to int16
// (VPMOVSXBW) against the row's four codes as int16 pairs, VPMADDWD giving
// two exact partial sums per output, merged once per tile.
func GemmI8(out []float32, ldo int, a, wp []int8, wsums []int32, scales, bias []float32, m, k, n int, sa float32, za int32) {
	need(m >= 0 && k >= 0 && n >= 0 && fits(len(out), m, n, ldo) && len(a) >= m*k && len(wp) >= PanelLenI8(n, k) &&
		len(wsums) >= n && (len(scales) == 1 || len(scales) >= n) && (bias == nil || len(bias) >= n))
	if m == 0 || n == 0 {
		return
	}
	if k == 0 || !useAsm {
		gemmI8Go(out, ldo, a, wp, wsums, scales, bias, m, k, n, sa, za)
		return
	}
	var b *float32
	if bias != nil {
		b = &bias[0]
	}
	perChannel := 0
	if len(scales) != 1 {
		perChannel = 1
	}
	if useVNNI {
		gemmI8VNNIAsm(&out[0], ldo, &a[0], &wp[0], &wsums[0], &scales[0], b, m, k, n, sa, za+128, perChannel)
		return
	}
	gemmI8Asm(&out[0], ldo, &a[0], &wp[0], &wsums[0], &scales[0], b, m, k, n, sa, za, perChannel)
}

func gemmI8Go(out []float32, ldo int, a, wp []int8, wsums []int32, scales, bias []float32, m, k, n int, sa float32, za int32) {
	kp := (k + 3) &^ 3
	for i := 0; i < m; i++ {
		ai := a[i*k : (i+1)*k]
		for p := 0; p*8 < n; p++ {
			panel := wp[p*8*kp : (p+1)*8*kp]
			var acc [8]int32
			for t, x := range ai {
				step := panel[t/4*32+t%4:]
				for j := range acc {
					acc[j] += int32(x) * int32(step[4*j])
				}
			}
			for j := 0; j < 8 && p*8+j < n; j++ {
				out[i*ldo+p*8+j] = dequantI8Go(acc[j], p*8+j, wsums, scales, bias, sa, za)
			}
		}
	}
}

// dequantI8Go is GemmI8's epilogue for output o of integer sum s: the
// activation zero point removed in wrapping int32, then the float steps
// convert, multiply by the product sa·scale, add the bias.
func dequantI8Go(s int32, o int, wsums []int32, scales, bias []float32, sa float32, za int32) float32 {
	sw := scales[0]
	if len(scales) != 1 {
		sw = scales[o]
	}
	// The conversions pin each product to float32 before the next
	// operation, so no compiler may fuse the multiply into the add.
	v := float32(float32(sa*sw) * float32(s-za*wsums[o]))
	if bias != nil {
		v += bias[o]
	}
	return v
}
