// Package quant implements post-training quantization for the iTask ViT:
// the "quantized configuration" of the paper. Weights are quantized
// per-channel (or per-tensor) to 4/6/8-bit symmetric integers; activations
// are quantized dynamically per tensor with an asymmetric range. All GEMMs
// — including the attention score and context products — run in integer
// arithmetic with int32 accumulation, exactly the arithmetic the hardware
// accelerator model executes, so measured accuracy corresponds to the
// simulated silicon.
package quant

import (
	"fmt"
	"math"
	"sort"

	"itask/internal/kernels"
)

// QParams describes one quantization mapping q = round(x/Scale) + Zero,
// clamped to the signed range of Bits bits.
type QParams struct {
	Scale float32
	Zero  int32
	Bits  int
}

// qRange returns the inclusive integer range for a signed Bits-bit value.
func qRange(bits int) (lo, hi int32) {
	if bits < 2 || bits > 8 {
		panic(fmt.Sprintf("quant: unsupported bit width %d", bits))
	}
	hi = int32(1)<<(bits-1) - 1
	return -hi - 1, hi
}

// SymmetricParams computes symmetric (zero-point-free) parameters covering
// [-absMax, absMax]. Used for weights.
func SymmetricParams(data []float32, bits int) QParams {
	mn, mx := kernels.RangeF32(data, 1, len(data), len(data))
	return symmetricParams(mn, mx, bits)
}

// symmetricParams is SymmetricParams from the data's range with 0.
func symmetricParams(mn, mx float32, bits int) QParams {
	_, hi := qRange(bits)
	absMax := max(-mn, mx)
	if absMax == 0 {
		absMax = 1 // all-zero tensor: any scale works; avoid div by zero
	}
	return QParams{Scale: absMax / float32(hi), Zero: 0, Bits: bits}
}

// AsymmetricParams computes parameters covering [min, max] with a zero
// point. Used for activations (e.g. post-GELU distributions are skewed).
func AsymmetricParams(data []float32, bits int) QParams {
	mn, mx := kernels.RangeF32(data, 1, len(data), len(data))
	return asymmetricParams(mn, mx, bits)
}

// asymmetricParams is AsymmetricParams from the data's range with 0.
func asymmetricParams(mn, mx float32, bits int) QParams {
	lo, hi := qRange(bits)
	if mx == mn {
		mx = mn + 1
	}
	scale := (mx - mn) / float32(int32(hi)-lo)
	zero := int32(math.Round(float64(lo) - float64(mn)/float64(scale)))
	if zero < lo {
		zero = lo
	}
	if zero > hi {
		zero = hi
	}
	return QParams{Scale: scale, Zero: zero, Bits: bits}
}

// PercentileParams is AsymmetricParams over a clipped range that discards
// the top/bottom (1-pct)/2 mass, robust to activation outliers.
// pct must be in (0,1].
func PercentileParams(data []float32, bits int, pct float64) QParams {
	if pct <= 0 || pct > 1 {
		panic(fmt.Sprintf("quant: percentile %v outside (0,1]", pct))
	}
	if pct == 1 || len(data) < 8 {
		return AsymmetricParams(data, bits)
	}
	sorted := append([]float32(nil), data...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	k := int(float64(len(sorted)) * (1 - pct) / 2)
	clipped := sorted[k : len(sorted)-k]
	return AsymmetricParams(clipped, bits)
}

// Quantize maps x to its integer representation under qp.
func (qp QParams) Quantize(x float32) int8 {
	var q [1]int8
	qp.QuantizeSlice(q[:], []float32{x})
	return q[0]
}

// Dequantize maps an integer representation back to float.
func (qp QParams) Dequantize(q int8) float32 {
	return float32(int32(q)-qp.Zero) * qp.Scale
}

// QuantizeSlice quantizes src into dst (must be same length) by the one
// rounding rule of the package, kernels.QuantizeI8: a float32 division by
// Scale, round to nearest even, add Zero, clamp.
func (qp QParams) QuantizeSlice(dst []int8, src []float32) {
	if len(dst) != len(src) {
		panic("quant: QuantizeSlice length mismatch")
	}
	qp.quantizeBlock(dst, src, 1, len(src), len(src))
}

// quantizeBlock is QuantizeSlice over the (rows, cols) block src at row
// stride ld, into rows·cols codes.
func (qp QParams) quantizeBlock(dst []int8, src []float32, rows, cols, ld int) {
	lo, hi := qRange(qp.Bits)
	kernels.QuantizeI8(dst, src, rows, cols, ld, qp.Scale, qp.Zero, lo, hi)
}
