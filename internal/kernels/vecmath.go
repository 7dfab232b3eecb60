package kernels

import "math"

// float32 kernels for the inference paths (a float model with train ==
// false, and the quantized model): softmax and GELU on one float32
// exponential, where the training paths keep math.Exp and math.Tanh in
// float64. exp32 stays within 2 ulp of math.Exp rounded to float32 wherever
// that is a normal number (TestExp32WithinTwoUlp) at about a third of the
// time, and has no data-dependent branch for a fresh frame to mispredict.

const (
	log2e = 1.44269504088896341
	// ln 2 split so that n*ln2Hi is exact for the |n| ≤ 128 that occur.
	ln2Hi = 0.693359375
	ln2Lo = -2.12194440e-4
	// exp32 returns 0 below minLog32 (the result would be subnormal) and +Inf
	// above maxLog32.
	minLog32 = -87.33654
	maxLog32 = 88.72283
)

// exp32 is e^x: x = n·ln2 + r with |r| ≤ ln2/2, a degree-6 polynomial for
// e^r (Cephes expf's coefficients), and the power of two applied through
// the exponent field.
func exp32(x float32) float32 {
	switch {
	case x != x:
		return x
	case x > maxLog32:
		return float32(math.Inf(1))
	case x < minLog32:
		return 0
	}
	// Adding and removing 1.5·2^23 rounds to the nearest integer (ties to
	// even) in the float32 adder itself; |x·log2e| < 2^22 here.
	n := (x*log2e + 12582912) - 12582912
	r := x - n*ln2Hi - n*ln2Lo
	p := float32(1.9875691500e-4)
	p = p*r + 1.3981999507e-3
	p = p*r + 8.3334519073e-3
	p = p*r + 4.1665795894e-2
	p = p*r + 1.6666665459e-1
	p = p*r + 5.0000001201e-1
	p = p*r*r + r + 1
	// n is in [-126, 128]; 2^128 is not a float32, so scale in two steps.
	half := int32(n) / 2
	return p * pow2(half) * pow2(int32(n)-half)
}

// pow2 is 2^n for n in [-126, 127].
func pow2(n int32) float32 { return math.Float32frombits(uint32(n+127) << 23) }

// SoftmaxF32 overwrites row with its softmax: each element's distance below
// the row maximum exponentiated by exp32, then normalized by their float32
// sum. An empty row is left alone.
func SoftmaxF32(row []float32) {
	if len(row) == 0 {
		return
	}
	m := row[0]
	for _, v := range row[1:] {
		if v > m {
			m = v
		}
	}
	var sum float32
	for j, v := range row {
		e := exp32(v - m)
		row[j] = e
		sum += e
	}
	inv := 1 / sum
	for j := range row {
		row[j] *= inv
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
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = x / (1 + exp32(-2*0.7978845608028654*(x+0.044715*x*x*x)))
	}
}
