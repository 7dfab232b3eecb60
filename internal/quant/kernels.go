package quant

import (
	"fmt"
	"sync"

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
	quantizeWeightInto(&qw, w.Data, perChannel)
	return qw
}

// quantizeWeightInto fills a pre-sized QWeight from float data — the
// buffer-reusing core of QuantizeWeight, also used by the attention path to
// quantize per-head key/value blocks into pooled scratch.
func quantizeWeightInto(qw *QWeight, data []float32, perChannel bool) {
	out, in := qw.Out, qw.In
	if perChannel {
		for o := 0; o < out; o++ {
			row := data[o*in : (o+1)*in]
			qp := SymmetricParams(row, qw.Bits)
			qw.Scales[o] = qp.Scale
			qp.QuantizeSlice(qw.Q[o*in:(o+1)*in], row)
		}
	} else {
		qp := SymmetricParams(data, qw.Bits)
		qw.Scales[0] = qp.Scale
		qp.QuantizeSlice(qw.Q, data)
	}
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

// QActivation is a dynamically quantized activation matrix (rows,cols) with
// one asymmetric parameter set for the whole tensor.
type QActivation struct {
	Q          []int8
	QP         QParams
	Rows, Cols int
}

// QuantizeActivation quantizes a float activation with per-tensor
// asymmetric parameters at the given bit width.
func QuantizeActivation(x *tensor.Tensor, bits int) QActivation {
	var qa QActivation
	QuantizeActivationInto(&qa, x, bits)
	return qa
}

// QuantizeActivationInto quantizes x into qa, reusing qa.Q when it has
// capacity — the pre-quantized-activation path the serving forward uses so
// steady-state inference recycles its int8 staging buffers.
func QuantizeActivationInto(qa *QActivation, x *tensor.Tensor, bits int) {
	if x.Dims() != 2 {
		panic(fmt.Sprintf("quant: activation must be a matrix, got %v", x.Shape))
	}
	n := x.Size()
	if cap(qa.Q) < n {
		qa.Q = make([]int8, n)
	}
	qa.Q = qa.Q[:n]
	qa.QP = AsymmetricParams(x.Data, bits)
	qa.Rows, qa.Cols = x.Shape[0], x.Shape[1]
	qa.QP.QuantizeSlice(qa.Q, x.Data)
}

// GEMM computes out = dequant(qa @ qwᵀ) + bias, with int32 accumulation:
//
//	out[i][o] = sa*sw[o] * (Σ_k qa[i][k]*qw[o][k] − za*rowSum[o]) + bias[o]
//
// bias may be nil. out must be (Rows, Out).
func GEMM(qa QActivation, qw QWeight, bias []float32, out *tensor.Tensor) {
	st := getStaging(0, qa.Rows*qw.Out)
	gemmInto(out, &qa, qw, bias, st.acc)
	stagingPool.Put(st)
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
	kernels.GemmI8(acc, qa.Q, qw.Q, qa.Rows, qa.Cols, qw.Out)
	kernels.DequantI8(out.Data, acc, qw.RowSums, qw.Scales, bias, qa.Rows, qw.Out, qa.QP.Scale, qa.QP.Zero)
}

// Linear runs a full dynamically-quantized linear layer: quantize x, integer
// GEMM against the prequantized weight, dequantize, add bias.
func Linear(x *tensor.Tensor, qw QWeight, bias []float32, actBits int) *tensor.Tensor {
	out := tensor.New(x.Shape[0], qw.Out)
	LinearInto(out, x, qw, bias, actBits)
	return out
}

// LinearInto is Linear writing into a caller-provided (rows, Out) tensor,
// staging the quantized activation and the int32 accumulator in pooled
// buffers so the steady-state path performs no per-call allocation.
func LinearInto(out, x *tensor.Tensor, qw QWeight, bias []float32, actBits int) {
	st := getStaging(x.Size(), x.Shape[0]*qw.Out)
	st.linear(out, x, qw, bias, actBits)
	stagingPool.Put(st)
}

// LinearWithQP is Linear with precomputed (statically calibrated)
// activation parameters instead of dynamic per-tensor range estimation —
// the cheap-hardware path where no runtime min/max scan is needed.
func LinearWithQP(x *tensor.Tensor, qp QParams, qw QWeight, bias []float32) *tensor.Tensor {
	out := tensor.New(x.Shape[0], qw.Out)
	LinearWithQPInto(out, x, qp, qw, bias)
	return out
}

// LinearWithQPInto is LinearWithQP writing into a caller-provided tensor
// with pooled staging.
func LinearWithQPInto(out, x *tensor.Tensor, qp QParams, qw QWeight, bias []float32) {
	if x.Dims() != 2 {
		panic(fmt.Sprintf("quant: LinearWithQP activation must be a matrix, got %v", x.Shape))
	}
	st := getStaging(x.Size(), x.Shape[0]*qw.Out)
	st.qa.QP = qp
	st.qa.Rows, st.qa.Cols = x.Shape[0], x.Shape[1]
	qp.QuantizeSlice(st.qa.Q, x.Data)
	gemmInto(out, &st.qa, qw, bias, st.acc)
	stagingPool.Put(st)
}

// staging is what one linear layer needs between its float input and float
// output: the int8 activation and the int32 accumulator.
type staging struct {
	qa  QActivation
	acc []int32
}

// linear is LinearInto through staging the caller holds, sized for the
// layer (getStaging) — attention takes one per call for all its heads'
// products instead of a pool round trip per product.
func (st *staging) linear(out, x *tensor.Tensor, qw QWeight, bias []float32, actBits int) {
	QuantizeActivationInto(&st.qa, x, actBits)
	gemmInto(out, &st.qa, qw, bias, st.acc)
}

// stagingPool recycles staging buffers across forwards; see the arena
// discipline note in tensor/arena.go.
var stagingPool = sync.Pool{New: func() any { return new(staging) }}

// getStaging returns pooled staging with qa.Q sized for nq codes and acc
// for nacc sums; the contents are arbitrary.
func getStaging(nq, nacc int) *staging {
	st := stagingPool.Get().(*staging)
	if cap(st.qa.Q) < nq {
		st.qa.Q = make([]int8, nq)
	}
	st.qa.Q = st.qa.Q[:nq]
	if cap(st.acc) < nacc {
		st.acc = make([]int32, nacc)
	}
	st.acc = st.acc[:nacc]
	return st
}

// qwPool recycles QWeight scratch for the attention path, which quantizes
// per-head key/value blocks on the fly each forward.
var qwPool = sync.Pool{New: func() any { return new(QWeight) }}

// getQW returns a pooled QWeight resized for an (out,in) matrix; its contents
// are arbitrary until quantizeWeightInto fills them.
func getQW(out, in, bits int, perChannel bool) *QWeight {
	qw := qwPool.Get().(*QWeight)
	n := out * in
	if cap(qw.Q) < n {
		qw.Q = make([]int8, n)
	}
	qw.Q = qw.Q[:n]
	if cap(qw.RowSums) < out {
		qw.RowSums = make([]int32, out)
	}
	qw.RowSums = qw.RowSums[:out]
	sc := 1
	if perChannel {
		sc = out
	}
	if cap(qw.Scales) < sc {
		qw.Scales = make([]float32, sc)
	}
	qw.Scales = qw.Scales[:sc]
	qw.Out, qw.In, qw.Bits = out, in, bits
	return qw
}

func putQW(qws ...*QWeight) {
	for _, q := range qws {
		qwPool.Put(q)
	}
}
