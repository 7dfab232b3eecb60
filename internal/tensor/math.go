package tensor

import (
	"fmt"
	"math"

	"itask/internal/kernels"
)

// Add returns t+u elementwise as a new tensor.
func Add(t, u *Tensor) *Tensor {
	mustSameShape("Add", t, u)
	out := New(t.Shape...)
	for i, v := range t.Data {
		out.Data[i] = v + u.Data[i]
	}
	return out
}

// AddInPlace accumulates u into t: t += u, one kernels.AddF32 call.
func (t *Tensor) AddInPlace(u *Tensor) {
	mustSameShape("AddInPlace", t, u)
	kernels.AddF32(t.Data, u.Data)
}

// Scale returns s*t as a new tensor.
func Scale(t *Tensor, s float32) *Tensor {
	out := New(t.Shape...)
	for i, v := range t.Data {
		out.Data[i] = v * s
	}
	return out
}

// ScaleInPlace multiplies every element of t by s.
func (t *Tensor) ScaleInPlace(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// AddRowVector adds a length-C vector to every row of an (R,C) matrix,
// in place. Used for bias addition.
func (t *Tensor) AddRowVector(v *Tensor) {
	if len(t.Shape) != 2 || len(v.Shape) != 1 || v.Shape[0] != t.Shape[1] {
		panic(fmt.Sprintf("tensor: AddRowVector %v += %v", t.Shape, v.Shape))
	}
	r, c := t.Shape[0], t.Shape[1]
	for i := 0; i < r; i++ {
		row := t.Data[i*c : (i+1)*c]
		for j, b := range v.Data {
			row[j] += b
		}
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float32 {
	// Pairwise-ish accumulation in float64 for stability on long tensors.
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return float32(s)
}

// Max returns the maximum element. Panics on empty tensors.
func (t *Tensor) Max() float32 {
	if len(t.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element. Panics on empty tensors.
func (t *Tensor) Min() float32 {
	if len(t.Data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// AbsMax returns max |t_i|, or 0 for an empty tensor.
func (t *Tensor) AbsMax() float32 {
	var m float32
	for _, v := range t.Data {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// SumRows returns a length-C vector holding the column sums of an (R,C)
// matrix. Used for bias gradients.
func (t *Tensor) SumRows() *Tensor {
	if len(t.Shape) != 2 {
		panic("tensor: SumRows on non-matrix")
	}
	r, c := t.Shape[0], t.Shape[1]
	out := New(c)
	for i := 0; i < r; i++ {
		row := t.Data[i*c : (i+1)*c]
		for j, v := range row {
			out.Data[j] += v
		}
	}
	return out
}

// Dot returns the inner product of two same-shaped tensors.
func Dot(t, u *Tensor) float32 {
	mustSameShape("Dot", t, u)
	var s float64
	for i, v := range t.Data {
		s += float64(v) * float64(u.Data[i])
	}
	return float32(s)
}

// Norm2 returns the Euclidean norm of t.
func (t *Tensor) Norm2() float32 {
	var s float64
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return float32(math.Sqrt(s))
}

// ApplyInPlace applies f to every element of t.
func (t *Tensor) ApplyInPlace(f func(float32) float32) {
	for i, v := range t.Data {
		t.Data[i] = f(v)
	}
}

// SoftmaxRowsF32 overwrites each row of an (R,C) matrix with the softmax of
// scale (> 0) times the row, computed by the float32 kernel
// (kernels.SoftmaxF32, within 2 ulp per exponential of the float64 one):
// the float model's one softmax, in attention (its 1/√dh folded in, in
// training and at inference alike) and in the losses' gradients.
func (t *Tensor) SoftmaxRowsF32(scale float32) {
	if len(t.Shape) != 2 {
		panic("tensor: SoftmaxRowsF32 on non-matrix")
	}
	kernels.SoftmaxF32(t.Data, t.Shape[0], t.Shape[1], scale)
}

// LayerNormF32Into writes the layer norm of each row of an (R,D) matrix
// into out (same shape; out == x works in place) with the float32 kernel
// (kernels.LayerNormF32): the float model's LayerNorm, in training and at
// inference alike. gamma and beta hold D values each.
func LayerNormF32Into(out, x *Tensor, gamma, beta []float32, eps float32) {
	if len(x.Shape) != 2 {
		panic("tensor: LayerNormF32Into on non-matrix")
	}
	mustSameShape("LayerNormF32Into", out, x)
	kernels.LayerNormF32(out.Data, x.Data, gamma, beta, eps, x.Shape[1])
}

// GELUF32Into writes the tanh-approximated GELU of t into out (same shape;
// out == t works in place) with the float32 kernel (kernels.GELUF32): the
// float model's activation, in training and at inference alike.
func GELUF32Into(out, t *Tensor) {
	mustSameShape("GELUF32Into", out, t)
	kernels.GELUF32(out.Data, t.Data)
}

// LogSumExpRows returns, for each row of an (R,C) matrix, log(sum(exp(row))),
// computed stably.
func LogSumExpRows(t *Tensor) []float32 {
	if len(t.Shape) != 2 {
		panic("tensor: LogSumExpRows on non-matrix")
	}
	r, c := t.Shape[0], t.Shape[1]
	out := make([]float32, r)
	for i := 0; i < r; i++ {
		row := t.Data[i*c : (i+1)*c]
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - m))
		}
		out[i] = m + float32(math.Log(sum))
	}
	return out
}
