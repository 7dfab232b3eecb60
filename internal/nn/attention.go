package nn

import (
	"fmt"
	"math"

	"itask/internal/tensor"
)

// MultiHeadAttention implements standard scaled dot-product self-attention
// with H heads over sequences of a fixed token count T. Inputs are packed as
// (B*T, Dim); the layer infers the batch size from the row count.
//
// The QKV projection and the output projection are fused Linear layers so
// the quantizer and hardware mapper see exactly four GEMMs per block
// (qkv, scores, context, proj), matching how the accelerator schedules them.
type MultiHeadAttention struct {
	Dim, Heads, Tokens int

	QKV  *Linear
	Proj *Linear

	// caches for backward
	q, k, v *tensor.Tensor // (B*T, Dim) each
	probs   []*tensor.Tensor
	batch   int
}

// NewMultiHeadAttention creates an MHSA layer for embeddings of width dim,
// heads attention heads, and sequences of tokens tokens.
func NewMultiHeadAttention(name string, dim, heads, tokens int, rng *tensor.RNG) *MultiHeadAttention {
	if dim%heads != 0 {
		panic(fmt.Sprintf("nn: attention dim %d not divisible by heads %d", dim, heads))
	}
	return &MultiHeadAttention{
		Dim:    dim,
		Heads:  heads,
		Tokens: tokens,
		QKV:    NewLinear(name+".qkv", dim, 3*dim, rng),
		Proj:   NewLinear(name+".proj", dim, dim, rng),
	}
}

// headSlice copies rows [row0,row0+T) and columns [c0,c0+dh) of src (width w)
// into a fresh (T,dh) matrix.
func headSlice(src *tensor.Tensor, row0, t, c0, dh, w int) *tensor.Tensor {
	out := tensor.New(t, dh)
	for i := 0; i < t; i++ {
		copy(out.Data[i*dh:(i+1)*dh], src.Data[(row0+i)*w+c0:(row0+i)*w+c0+dh])
	}
	return out
}

// headSliceAdd accumulates a (T,dh) matrix back into rows/columns of dst.
func headSliceAdd(dst *tensor.Tensor, blk *tensor.Tensor, row0, t, c0, dh, w int) {
	for i := 0; i < t; i++ {
		drow := dst.Data[(row0+i)*w+c0 : (row0+i)*w+c0+dh]
		srow := blk.Data[i*dh : (i+1)*dh]
		for j, v := range srow {
			drow[j] += v
		}
	}
}

// Forward computes multi-head self-attention for x of shape (B*T, Dim),
// keeping q/k/v and the per-head softmax probabilities on the layer for
// Backward and LastProbs. It is the training path; inference runs through
// vit's trunk, which reads this layer's projections.
func (a *MultiHeadAttention) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkRank("MHSA.Forward", x, 2)
	rows := x.Shape[0]
	if rows%a.Tokens != 0 {
		panic(fmt.Sprintf("nn: MHSA rows %d not a multiple of tokens %d", rows, a.Tokens))
	}
	b := rows / a.Tokens
	qkv := a.QKV.Forward(x, train) // (rows, 3*Dim)
	d := a.Dim
	q := tensor.New(rows, d)
	k := tensor.New(rows, d)
	v := tensor.New(rows, d)
	for i := 0; i < rows; i++ {
		src := qkv.Data[i*3*d : (i+1)*3*d]
		copy(q.Data[i*d:(i+1)*d], src[0:d])
		copy(k.Data[i*d:(i+1)*d], src[d:2*d])
		copy(v.Data[i*d:(i+1)*d], src[2*d:3*d])
	}
	dh := d / a.Heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	out := tensor.New(rows, d)
	probs := make([]*tensor.Tensor, b*a.Heads)
	for bi := 0; bi < b; bi++ {
		row0 := bi * a.Tokens
		for h := 0; h < a.Heads; h++ {
			c0 := h * dh
			qh := headSlice(q, row0, a.Tokens, c0, dh, d)
			kh := headSlice(k, row0, a.Tokens, c0, dh, d)
			vh := headSlice(v, row0, a.Tokens, c0, dh, d)
			scores := tensor.MatMulT(qh, kh)
			scores.ScaleInPlace(scale)
			p := tensor.SoftmaxRows(scores)
			probs[bi*a.Heads+h] = p
			oh := tensor.MatMul(p, vh)
			headSliceAdd(out, oh, row0, a.Tokens, c0, dh, d)
		}
	}
	a.q, a.k, a.v = q, k, v
	a.probs = probs
	a.batch = b
	return a.Proj.Forward(out, train)
}

// Backward propagates gradients through the projection, the attention
// mechanism (including the softmax Jacobian), and the QKV projection.
func (a *MultiHeadAttention) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if a.probs == nil {
		panic("nn: MHSA.Backward before Forward(train=true)")
	}
	dOut := a.Proj.Backward(dy) // (rows, Dim)
	rows := dOut.Shape[0]
	d := a.Dim
	dh := d / a.Heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	dq := tensor.New(rows, d)
	dk := tensor.New(rows, d)
	dv := tensor.New(rows, d)
	for bi := 0; bi < a.batch; bi++ {
		row0 := bi * a.Tokens
		for h := 0; h < a.Heads; h++ {
			c0 := h * dh
			p := a.probs[bi*a.Heads+h] // (T,T)
			qh := headSlice(a.q, row0, a.Tokens, c0, dh, d)
			kh := headSlice(a.k, row0, a.Tokens, c0, dh, d)
			vh := headSlice(a.v, row0, a.Tokens, c0, dh, d)
			dOh := headSlice(dOut, row0, a.Tokens, c0, dh, d)

			// dP = dOh @ Vhᵀ ; dVh = Pᵀ @ dOh
			dP := tensor.MatMulT(dOh, vh)
			dVh := tensor.TMatMul(p, dOh)

			// Softmax backward row-wise: dS = P ⊙ (dP - rowsum(dP ⊙ P)).
			t := a.Tokens
			dS := tensor.New(t, t)
			for i := 0; i < t; i++ {
				prow := p.Data[i*t : (i+1)*t]
				dprow := dP.Data[i*t : (i+1)*t]
				var dot float64
				for j, pv := range prow {
					dot += float64(pv) * float64(dprow[j])
				}
				dsrow := dS.Data[i*t : (i+1)*t]
				for j, pv := range prow {
					dsrow[j] = pv * (dprow[j] - float32(dot))
				}
			}
			dS.ScaleInPlace(scale)

			dQh := tensor.MatMul(dS, kh)  // (T,T)@(T,dh)
			dKh := tensor.TMatMul(dS, qh) // (T,T)ᵀ@(T,dh)

			headSliceAdd(dq, dQh, row0, a.Tokens, c0, dh, d)
			headSliceAdd(dk, dKh, row0, a.Tokens, c0, dh, d)
			headSliceAdd(dv, dVh, row0, a.Tokens, c0, dh, d)
		}
	}
	// Reassemble into the packed QKV gradient.
	dqkv := tensor.New(rows, 3*d)
	for i := 0; i < rows; i++ {
		dst := dqkv.Data[i*3*d : (i+1)*3*d]
		copy(dst[0:d], dq.Data[i*d:(i+1)*d])
		copy(dst[d:2*d], dk.Data[i*d:(i+1)*d])
		copy(dst[2*d:3*d], dv.Data[i*d:(i+1)*d])
	}
	return a.QKV.Backward(dqkv)
}

// Params returns the QKV and projection parameters.
func (a *MultiHeadAttention) Params() []*Param {
	return append(a.QKV.Params(), a.Proj.Params()...)
}

// LastProbs returns the attention probability matrices cached by the most
// recent Forward(train=true) call: one (T,T) tensor per batch item per head,
// indexed [batch*Heads + head]. Used by attention-rollout saliency; nil if
// no training-mode forward has run.
func (a *MultiHeadAttention) LastProbs() []*tensor.Tensor { return a.probs }
