package nn

import (
	"fmt"

	"itask/internal/tensor"
)

// Linear is a fully-connected layer y = x Wᵀ + b with weight stored
// (out,in) — the layout the quantization kernels and the hardware mapper
// also use, so weights move between the float and int8 worlds without
// transposition.
type Linear struct {
	In, Out int
	Weight  *Param
	Bias    *Param // nil when the layer is bias-free

	// cached input for the backward pass
	x *tensor.Tensor
}

// NewLinear creates a Linear layer with Xavier-uniform weights and zero bias.
func NewLinear(name string, in, out int, rng *tensor.RNG) *Linear {
	return &Linear{
		In:     in,
		Out:    out,
		Weight: NewParam(name+".weight", tensor.XavierUniform(rng, out, in)),
		Bias:   NewParam(name+".bias", tensor.New(out)),
	}
}

// Forward computes y = x Wᵀ + b for x of shape (rows, In).
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkRank("Linear.Forward", x, 2)
	if x.Shape[1] != l.In {
		panic(fmt.Sprintf("nn: Linear(%d->%d) got input width %d", l.In, l.Out, x.Shape[1]))
	}
	if train {
		l.x = x
	}
	y := tensor.MatMulT(x, l.Weight.W)
	if l.Bias != nil {
		y.AddRowVector(l.Bias.W)
	}
	return y
}

// Backward computes dx = dy W, dW += dyᵀ x, db += sum_rows(dy).
func (l *Linear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if l.x == nil {
		panic("nn: Linear.Backward before Forward(train=true)")
	}
	checkRank("Linear.Backward", dy, 2)
	dW := tensor.TMatMul(dy, l.x) // (rows,Out)ᵀ @ (rows,In) = (Out,In)
	l.Weight.G.AddInPlace(dW)
	if l.Bias != nil {
		l.Bias.G.AddInPlace(dy.SumRows())
	}
	return tensor.MatMul(dy, l.Weight.W) // (rows,Out) @ (Out,In) = (rows,In)
}

// Params returns the layer's trainable parameters.
func (l *Linear) Params() []*Param {
	if l.Bias == nil {
		return []*Param{l.Weight}
	}
	return []*Param{l.Weight, l.Bias}
}
