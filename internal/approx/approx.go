// Package approx implements the hardware-friendly approximations of the
// accelerator's vector unit: a bit-manipulation exponential for softmax and
// a Newton-refined inverse square root for LayerNorm. Real edge accelerators
// cannot afford full-precision transcendental units; these are the standard
// tricks (2^k decomposition with a quadratic fraction polynomial;
// Quake-style rsqrt seed with one Newton step) and the accuracy ablation in
// experiment E11 quantifies their end-to-end cost.
package approx

import (
	"math"

	"itask/internal/tensor"
)

// Exp approximates e^x for float32 via 2^(x·log2e): the integer part sets
// the exponent bits directly; the fractional part f in [0,1) uses the
// quadratic 2^f ≈ 1 + f·(0.6565 + 0.3435·f) (max relative error ≈ 0.3%).
// Inputs below -80 flush to 0 and above +80 saturate, which is safe for
// softmax where inputs are max-subtracted.
func Exp(x float32) float32 {
	if x > 80 {
		x = 80
	}
	if x < -80 {
		return 0
	}
	t := float64(x) * 1.4426950408889634 // log2(e)
	k := math.Floor(t)
	f := t - k
	// 2^f for f in [0,1): quadratic fit with exact endpoints.
	p := 1 + f*(0.6565+0.3435*f)
	// Assemble 2^k by exponent-bit construction.
	bits := uint64(k+1023) << 52
	return float32(math.Float64frombits(bits) * p)
}

// Rsqrt approximates 1/sqrt(x) with the classic bit-level seed and two
// Newton-Raphson iterations (max relative error well under 0.01%).
// x must be positive.
func Rsqrt(x float32) float32 {
	half := 0.5 * x
	bits := math.Float32bits(x)
	bits = 0x5f3759df - bits>>1
	y := math.Float32frombits(bits)
	y = y * (1.5 - half*y*y)
	y = y * (1.5 - half*y*y)
	return y
}

// SoftmaxRows is the row softmax (each row's maximum subtracted first) with
// the approximate exponential, matching what the vector unit computes.
func SoftmaxRows(t *tensor.Tensor) *tensor.Tensor {
	if t.Dims() != 2 {
		panic("approx: SoftmaxRows on non-matrix")
	}
	r, c := t.Shape[0], t.Shape[1]
	out := tensor.New(r, c)
	for i := 0; i < r; i++ {
		row := t.Data[i*c : (i+1)*c]
		o := out.Data[i*c : (i+1)*c]
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		var sum float32
		for j, v := range row {
			e := Exp(v - m)
			o[j] = e
			sum += e
		}
		if sum > 0 {
			inv := 1 / sum
			for j := range o {
				o[j] *= inv
			}
		}
	}
	return out
}

// LayerNormRows normalizes each row with the approximate rsqrt and applies
// the affine transform, matching the vector unit's LayerNorm.
func LayerNormRows(x *tensor.Tensor, gamma, beta []float32, eps float32) *tensor.Tensor {
	if x.Dims() != 2 {
		panic("approx: LayerNormRows on non-matrix")
	}
	rows, d := x.Shape[0], x.Shape[1]
	if len(gamma) != d || len(beta) != d {
		panic("approx: LayerNormRows affine size mismatch")
	}
	out := tensor.New(rows, d)
	for i := 0; i < rows; i++ {
		row := x.Data[i*d : (i+1)*d]
		var mean float32
		for _, v := range row {
			mean += v
		}
		mean /= float32(d)
		var variance float32
		for _, v := range row {
			dv := v - mean
			variance += dv * dv
		}
		variance /= float32(d)
		inv := Rsqrt(variance + eps)
		o := out.Data[i*d : (i+1)*d]
		for j, v := range row {
			o[j] = gamma[j]*((v-mean)*inv) + beta[j]
		}
	}
	return out
}

// GELU approximates the activation with the cheap sigmoid form
// gelu(x) ≈ x·σ(1.702x), σ computed with the approximate exponential —
// one Exp and one divide per element instead of a tanh.
func GELU(x float32) float32 {
	return x / (1 + Exp(-1.702*x))
}
