package quant

import (
	"fmt"

	"itask/internal/kernels"
	"itask/internal/tensor"
)

// QWeight is a quantized weight matrix in (out,in) layout: symmetric
// per-channel (per output row) or per-tensor integer codes plus scales.
// Q, row-major, is its stored form: the checkpoint, the checksum, the fault
// surface. P is the same codes in kernels.GemmI8's panels, the form the
// GEMM reads; every change of Q ends in pack, so P always equals
// kernels.PackI8(Q). Attention's per-head operands, quantized per call
// into workspace scratch, carry only P.
type QWeight struct {
	Q       []int8    // len Out*In
	P       []int8    // len kernels.PanelLenI8(Out, In)
	Scales  []float32 // len Out (per-channel) or len 1 (per-tensor)
	RowSums []int32   // Σ_k Q[o][k], precomputed for zero-point correction
	Out, In int
	Bits    int
}

// QuantizeWeight quantizes a float (out,in) matrix: per channel each row
// under its own symmetric range, else the whole matrix under one.
func QuantizeWeight(w *tensor.Tensor, bits int, perChannel bool) QWeight {
	if w.Dims() != 2 {
		panic(fmt.Sprintf("quant: weight must be a matrix, got %v", w.Shape))
	}
	out, in := w.Shape[0], w.Shape[1]
	qw := QWeight{Q: make([]int8, out*in), Scales: make([]float32, 1), Out: out, In: in, Bits: bits}
	if perChannel {
		qw.Scales = make([]float32, out)
		for o := range out {
			row := w.Data[o*in : (o+1)*in]
			qp := SymmetricParams(row, bits)
			qw.Scales[o] = qp.Scale
			qp.QuantizeSlice(qw.Q[o*in:(o+1)*in], row)
		}
	} else {
		qp := SymmetricParams(w.Data, bits)
		qw.Scales[0] = qp.Scale
		qp.QuantizeSlice(qw.Q, w.Data)
	}
	qw.RowSums = rowSums(qw.Q, out, in, make([]int32, out))
	qw.pack()
	return qw
}

// rowSums writes each of the n rows of the row-major (n, k) codes q summed
// into sums.
func rowSums(q []int8, n, k int, sums []int32) []int32 {
	for o := range n {
		var s int32
		for _, c := range q[o*k : (o+1)*k] {
			s += int32(c)
		}
		sums[o] = s
	}
	return sums
}

// pack derives the panels P from the codes Q.
func (w *QWeight) pack() {
	w.P = make([]int8, kernels.PanelLenI8(w.Out, w.In))
	kernels.PackI8(w.P, w.Q, w.Out, w.In)
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

// gemmInto is one int8 GEMM into out (Rows, Out): qa times qwᵀ, dequantized,
// plus bias — kernels.GemmI8 with its shapes checked.
func gemmInto(out *tensor.Tensor, qa *QActivation, qw QWeight, bias []float32) {
	if qa.Cols != qw.In {
		panic(fmt.Sprintf("quant: GEMM inner dim %d vs %d", qa.Cols, qw.In))
	}
	if out.Dims() != 2 || out.Shape[0] != qa.Rows || out.Shape[1] != qw.Out {
		panic(fmt.Sprintf("quant: GEMM out shape %v, want (%d,%d)", out.Shape, qa.Rows, qw.Out))
	}
	if bias != nil && len(bias) != qw.Out {
		panic("quant: GEMM bias length mismatch")
	}
	gemmAt(out.Data, qw.Out, qa, qw, bias)
}

// gemmAt is gemmInto's kernel call, unchecked, with the rows of out ldo
// floats apart:
//
//	out[i][o] = sa*sw[o] * (Σ_k qa[i][k]*qw[o][k] − za*rowSum[o]) + bias[o]
func gemmAt(out []float32, ldo int, qa *QActivation, qw QWeight, bias []float32) {
	kernels.GemmI8(out, ldo, qa.Q, qw.P, qw.RowSums, qw.Scales, bias, qa.Rows, qa.Cols, qw.Out, qa.QP.Scale, qa.QP.Zero)
}

// linearInto is one int8 linear layer into out (rows, Out): x (rows, In)
// quantized under qp into codes, then the GEMM.
func linearInto(out, x *tensor.Tensor, qp QParams, qw QWeight, bias []float32, codes []int8) {
	qp.QuantizeSlice(codes, x.Data)
	gemmInto(out, &QActivation{Q: codes, QP: qp, Rows: x.Shape[0], Cols: x.Shape[1]}, qw, bias)
}
