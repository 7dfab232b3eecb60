package quant

import (
	"fmt"

	"itask/internal/kernels"
	"itask/internal/tensor"
)

// QWeight is a quantized weight matrix in (out,in) layout: symmetric
// per-channel (per output row) or per-tensor integer codes plus scales.
type QWeight struct {
	Q       []int8    // len Out*In
	Scales  []float32 // len Out (per-channel) or len 1 (per-tensor)
	RowSums []int32   // Σ_k Q[o][k], precomputed for zero-point correction
	Out, In int
	Bits    int
}

// QuantizeWeight quantizes a float (out,in) matrix.
func QuantizeWeight(w *tensor.Tensor, bits int, perChannel bool) QWeight {
	if w.Dims() != 2 {
		panic(fmt.Sprintf("quant: weight must be a matrix, got %v", w.Shape))
	}
	out, in := w.Shape[0], w.Shape[1]
	qw := QWeight{
		Q:       make([]int8, out*in),
		RowSums: make([]int32, out),
		Out:     out, In: in, Bits: bits,
	}
	if perChannel {
		qw.Scales = make([]float32, out)
	} else {
		qw.Scales = make([]float32, 1)
	}
	quantizeWeightInto(&qw, w.Data, in, perChannel)
	return qw
}

// quantizeWeightInto fills a pre-sized QWeight from the (Out, In) float
// block data at row stride ld — the buffer-reusing core of QuantizeWeight,
// also used by attention to quantize per-head key/value blocks into
// workspace scratch, the keys read in place. Per channel it is one
// kernels.QuantizeRowsI8 call over the block.
func quantizeWeightInto(qw *QWeight, data []float32, ld int, perChannel bool) {
	out, in := qw.Out, qw.In
	if perChannel {
		_, hi := qRange(qw.Bits)
		kernels.QuantizeRowsI8(qw.Q, qw.Scales, qw.RowSums, data, out, in, ld, hi)
		return
	}
	mn, mx := kernels.RangeF32(data, out, in, ld)
	qp := symmetricParams(mn, mx, qw.Bits)
	qw.Scales[0] = qp.Scale
	qp.quantizeBlock(qw.Q, data, out, in, ld)
	for o := 0; o < out; o++ {
		var s int32
		for _, q := range qw.Q[o*in : (o+1)*in] {
			s += int32(q)
		}
		qw.RowSums[o] = s
	}
}

// scale returns the dequantization scale for output channel o.
func (w QWeight) scale(o int) float32 {
	if len(w.Scales) == 1 {
		return w.Scales[0]
	}
	return w.Scales[o]
}

// Dequantize reconstructs the float weight matrix (for error analysis).
func (w QWeight) Dequantize() *tensor.Tensor {
	out := tensor.New(w.Out, w.In)
	for o := 0; o < w.Out; o++ {
		s := w.scale(o)
		for k := 0; k < w.In; k++ {
			out.Data[o*w.In+k] = float32(w.Q[o*w.In+k]) * s
		}
	}
	return out
}

// QActivation is a quantized activation matrix (rows,cols) with one
// asymmetric parameter set for the whole tensor.
type QActivation struct {
	Q          []int8
	QP         QParams
	Rows, Cols int
}

// GEMM computes out = dequant(qa @ qwᵀ) + bias, with int32 accumulation:
//
//	out[i][o] = sa*sw[o] * (Σ_k qa[i][k]*qw[o][k] − za*rowSum[o]) + bias[o]
//
// bias may be nil. out must be (Rows, Out).
func GEMM(qa QActivation, qw QWeight, bias []float32, out *tensor.Tensor) {
	gemmInto(out, &qa, qw, bias, make([]int32, qa.Rows*qw.Out))
}

// gemmInto is GEMM with the int32 accumulator, (Rows × Out), supplied: one
// call of the row-panel int8 GEMM kernel into acc and one of the
// dequantizing epilogue out of it.
func gemmInto(out *tensor.Tensor, qa *QActivation, qw QWeight, bias []float32, acc []int32) {
	if qa.Cols != qw.In {
		panic(fmt.Sprintf("quant: GEMM inner dim %d vs %d", qa.Cols, qw.In))
	}
	if out.Dims() != 2 || out.Shape[0] != qa.Rows || out.Shape[1] != qw.Out {
		panic(fmt.Sprintf("quant: GEMM out shape %v, want (%d,%d)", out.Shape, qa.Rows, qw.Out))
	}
	if bias != nil && len(bias) != qw.Out {
		panic("quant: GEMM bias length mismatch")
	}
	gemmAt(out.Data, qw.Out, qa, qw, bias, acc)
}

// gemmAt is gemmInto's two kernel calls, unchecked, with the rows of out
// ldo floats apart.
func gemmAt(out []float32, ldo int, qa *QActivation, qw QWeight, bias []float32, acc []int32) {
	kernels.GemmI8(acc, qa.Q, qw.Q, qw.RowSums, qa.Rows, qa.Cols, qw.Out)
	kernels.DequantI8(out, acc, qw.RowSums, qw.Scales, bias, qa.Rows, qw.Out, ldo, qa.QP.Scale, qa.QP.Zero)
}

// Linear runs a full dynamically-quantized linear layer: quantize x, integer
// GEMM against the prequantized weight, dequantize, add bias.
func Linear(x *tensor.Tensor, qw QWeight, bias []float32, actBits int) *tensor.Tensor {
	if x.Dims() != 2 {
		panic(fmt.Sprintf("quant: activation must be a matrix, got %v", x.Shape))
	}
	out := tensor.New(x.Shape[0], qw.Out)
	linearInto(out, x, AsymmetricParams(x.Data, actBits), qw, bias, make([]int8, x.Size()), make([]int32, x.Shape[0]*qw.Out))
	return out
}

// linearInto is one int8 linear layer into out (rows, Out): x (rows, In)
// quantized under qp into codes, the integer GEMM into acc (rows·Out), the
// dequantizing epilogue.
func linearInto(out, x *tensor.Tensor, qp QParams, qw QWeight, bias []float32, codes []int8, acc []int32) {
	qp.QuantizeSlice(codes, x.Data)
	gemmInto(out, &QActivation{Q: codes, QP: qp, Rows: x.Shape[0], Cols: x.Shape[1]}, qw, bias, acc)
}
