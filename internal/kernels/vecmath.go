package kernels

import "math"

// float32 kernels for the elementwise half of every forward (a float model
// training or at inference, and the quantized model): the residual add,
// softmax and GELU on one float32 exponential, and LayerNorm. exp32
// stays within 2 ulp of math.Exp rounded to float32 wherever that is a
// normal number (TestExp32WithinTwoUlp) and has no data-dependent branch for
// a fresh frame to mispredict.
//
// Each kernel has an AVX2 body (vecmath_amd64.s) and a Go reference that
// computes the same bits, the way the int8 kernels do (i8.go): every float
// step is one correctly rounded IEEE single operation on both sides, in the
// same order — no fused multiply-add, no reciprocal estimate, no
// reassociation. The Go spec lets a compiler fuse x*y + z (the arm64 one
// does); an explicit float32(…) conversion forbids it, so in this file every
// product that feeds an add or a subtraction is wrapped in one, and
// `GOARCH=arm64 go build -gcflags=-S` shows no FMADDS/FMSUBS from it. A row
// reduction accumulates into eight lanes, element j into lane j mod 8, and
// then adds the lanes in one fixed tree (laneSum) — the order the
// assembly's eight-wide registers give.

const (
	log2e = 1.44269504088896341
	// Adding and removing 1.5·2^23 rounds a float32 of magnitude below 2^22
	// to the nearest integer (ties to even) in the float32 adder itself.
	roundBias = 12582912
	// ln 2 split so that n*ln2Hi is exact for the |n| ≤ 128 that occur.
	ln2Hi = 0.693359375
	ln2Lo = -2.12194440e-4
	// exp32 returns 0 below minLog32 (the result would be subnormal) and +Inf
	// above maxLog32.
	minLog32 = -87.33654
	maxLog32 = 88.72283
	// Cephes expf's polynomial for e^r on |r| ≤ ln2/2, highest power first.
	expP0 = 1.9875691500e-4
	expP1 = 1.3981999507e-3
	expP2 = 8.3334519073e-3
	expP3 = 4.1665795894e-2
	expP4 = 1.6666665459e-1
	expP5 = 5.0000001201e-1
	// GELU's u = √(2/π)(x + geluC·x³) enters exp32 as −2u = geluK·(…).
	geluC = 0.044715
	geluK = -2 * 0.7978845608028654
)

// vecConsts holds every constant the assembly reads, each rounded to
// float32 exactly as the Go code's untyped constants are, as bits, and
// repeated across eight lanes so an instruction can take it as a memory
// operand. The C_* offsets in vecmath_amd64.s index it, 32 bytes a row.
var vecConsts = func() (t [18][8]uint32) {
	for i, bits := range [...]uint32{
		math.Float32bits(log2e),
		math.Float32bits(roundBias),
		math.Float32bits(ln2Hi),
		math.Float32bits(ln2Lo),
		math.Float32bits(expP0),
		math.Float32bits(expP1),
		math.Float32bits(expP2),
		math.Float32bits(expP3),
		math.Float32bits(expP4),
		math.Float32bits(expP5),
		math.Float32bits(1),
		127, // the float32 exponent bias, an int32 lane
		math.Float32bits(maxLog32),
		math.Float32bits(minLog32),
		0x7f800000, // +Inf
		0xff800000, // -Inf
		math.Float32bits(geluC),
		math.Float32bits(geluK),
	} {
		for l := range t[i] {
			t[i][l] = bits
		}
	}
	return t
}()

// tailMask is eight all-ones lanes then eight zero lanes; the eight lanes
// starting at lane 8−r select a row's last r (< 8) elements for the
// assembly's masked loads and stores.
var tailMask = [16]int32{-1, -1, -1, -1, -1, -1, -1, -1}

// exp32 is e^x: x = n·ln2 + r with |r| ≤ ln2/2, a degree-6 polynomial for
// e^r, and the power of two applied through the exponent field.
func exp32(x float32) float32 {
	switch {
	case x != x:
		return x
	case x > maxLog32:
		return float32(math.Inf(1))
	case x < minLog32:
		return 0
	}
	n := (float32(x*log2e) + roundBias) - roundBias
	r := (x - float32(n*ln2Hi)) - float32(n*ln2Lo)
	p := float32(expP0)
	p = float32(p*r) + expP1
	p = float32(p*r) + expP2
	p = float32(p*r) + expP3
	p = float32(p*r) + expP4
	p = float32(p*r) + expP5
	p = float32(float32(p*r)*r) + r + 1
	// n is in [-126, 128]; 2^128 is not a float32, so scale in two steps.
	half := int32(n) / 2
	return float32(float32(p*pow2(half)) * pow2(int32(n)-half))
}

// pow2 is 2^n for n in [-126, 127].
func pow2(n int32) float32 { return math.Float32frombits(uint32(n+127) << 23) }

// laneSum adds eight lane accumulators in the assembly's reduction order:
// the upper four onto the lower four, then lanes two apart, then the last
// pair.
func laneSum(s *[8]float32) float32 {
	return ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]))
}

// AddF32 accumulates src into dst elementwise, dst[i] += src[i], over
// len(src) elements: the residual add. Each element is one IEEE single add
// on both bodies, so they agree bit for bit (a NaN for a NaN). dst must be
// at least as long as src.
func AddF32(dst, src []float32) {
	need(len(dst) >= len(src))
	if useAsm && len(src) > 0 {
		addF32Asm(&dst[0], &src[0], len(src))
		return
	}
	addF32Go(dst, src)
}

func addF32Go(dst, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] += v
	}
}

// SoftmaxF32 overwrites each row of the (rows, cols) matrix x with the
// softmax of scale times the row: each element's distance below the row
// maximum exponentiated by exp32, then multiplied by the reciprocal of their
// float32 sum. scale must be positive; attention passes its 1/√dh, which
// gives the bits scaling the scores first would (v·scale is one rounding
// either way, and the maximum of the scaled row is the scaled maximum).
func SoftmaxF32(x []float32, rows, cols int, scale float32) {
	need(rows >= 0 && cols >= 0 && len(x) >= rows*cols)
	if rows == 0 || cols == 0 {
		return
	}
	if useAsm {
		softmaxF32Asm(&x[0], rows, cols, scale)
		return
	}
	softmaxF32Go(x, rows, cols, scale)
}

func softmaxF32Go(x []float32, rows, cols int, scale float32) {
	for i := 0; i < rows; i++ {
		row := x[i*cols : (i+1)*cols]
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		m = float32(m * scale)
		var s [8]float32
		for j, v := range row {
			e := exp32(float32(v*scale) - m)
			row[j] = e
			s[j%8] += e
		}
		inv := 1 / laneSum(&s)
		for j := range row {
			row[j] *= inv
		}
	}
}

// GELUF32 writes the tanh-approximated GELU of src into dst (which may be
// src). With u = √(2/π)(x + 0.044715x³), 0.5x(1 + tanh u) is x·σ(2u), so one
// exponential and one division give it with no cancellation and no branch:
//
//	gelu(x) = x / (1 + e^(−2u))
//
// For x ≥ 0 the result is within 3 ulp of the float64 formula; for x < 0,
// where the result is small against x, within 2^-22·|x|. dst must be at
// least as long as src.
func GELUF32(dst, src []float32) {
	need(len(dst) >= len(src))
	i := 0
	if useAsm && len(src) >= 8 {
		i = len(src) &^ 7
		geluF32Asm(&dst[0], &src[0], i)
	}
	geluF32Go(dst[i:], src[i:])
}

func geluF32Go(dst, src []float32) {
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = x / (1 + exp32(geluK*(x+float32(geluC*x*x*x))))
	}
}

// LayerNormF32 normalizes each d-wide row of src to zero mean and unit
// variance and applies the affine transform, into dst (which may be src):
//
//	dst[j] = gamma[j]·((x[j] − mean)·inv) + beta[j],  inv = 1/√(var + eps)
//
// in float32, two passes over the row (the mean, then Σ(x − mean)²), each a
// lane-ordered sum divided by d; the square root and the reciprocal are
// correctly rounded. len(src) must be a multiple of d, dst at least as long,
// gamma and beta at least d.
func LayerNormF32(dst, src, gamma, beta []float32, eps float32, d int) {
	need(d > 0 && len(src)%d == 0 && len(dst) >= len(src) && len(gamma) >= d && len(beta) >= d)
	rows := len(src) / d
	if rows == 0 {
		return
	}
	if useAsm {
		layerNormF32Asm(&dst[0], &src[0], &gamma[0], &beta[0], rows, d, eps)
		return
	}
	layerNormF32Go(dst, src, gamma, beta, eps, d)
}

func layerNormF32Go(dst, src, gamma, beta []float32, eps float32, d int) {
	gamma, beta = gamma[:d], beta[:d]
	for i := 0; i+d <= len(src); i += d {
		row, out := src[i:i+d], dst[i:i+d]
		mean, inv := LayerNormStats(row, eps)
		for j, v := range row {
			out[j] = float32(gamma[j]*float32((v-mean)*inv)) + beta[j]
		}
	}
}

// LayerNormStats returns the mean and the inverse standard deviation
// 1/√(var + eps) that LayerNormF32 normalizes row with, bit for bit: a
// training forward caches them for the backward pass.
func LayerNormStats(row []float32, eps float32) (mean, inv float32) {
	fd := float32(len(row))
	var s [8]float32
	for j, v := range row {
		s[j%8] += v
	}
	mean = laneSum(&s) / fd
	s = [8]float32{}
	for j, v := range row {
		dv := v - mean
		s[j%8] += float32(dv * dv)
	}
	return mean, 1 / float32(math.Sqrt(float64(laneSum(&s)/fd+eps)))
}
