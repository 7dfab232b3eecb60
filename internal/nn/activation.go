package nn

import (
	"math"

	"itask/internal/tensor"
)

// GELU is the Gaussian Error Linear Unit with the tanh approximation used
// throughout transformer literature:
//
//	gelu(x) = 0.5x(1 + tanh(√(2/π)(x + 0.044715x³)))
//
// The forward is the float32 kernel, within 3 ulp of that formula (2^-22·|x|
// for x < 0); the backward pass differentiates the formula itself in
// float64.
type GELU struct {
	x *tensor.Tensor
}

// NewGELU returns a GELU activation layer.
func NewGELU() *GELU { return &GELU{} }

const (
	geluC  = 0.7978845608028654 // sqrt(2/pi)
	geluC3 = 0.044715
)

func geluGradScalar(x float64) float64 {
	u := geluC * (x + geluC3*x*x*x)
	t := math.Tanh(u)
	du := geluC * (1 + 3*geluC3*x*x)
	return 0.5*(1+t) + 0.5*x*(1-t*t)*du
}

// Forward applies GELU elementwise with the float32 kernel
// (kernels.GELUF32), in training and at inference alike; a training forward
// keeps x for Backward.
func (g *GELU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		g.x = x
	}
	y := tensor.New(x.Shape...)
	tensor.GELUF32Into(y, x)
	return y
}

// Backward multiplies dy by gelu'(x).
func (g *GELU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if g.x == nil {
		panic("nn: GELU.Backward before Forward(train=true)")
	}
	dx := tensor.New(dy.Shape...)
	for i, v := range g.x.Data {
		dx.Data[i] = dy.Data[i] * float32(geluGradScalar(float64(v)))
	}
	return dx
}

// Params returns nil; GELU has no parameters.
func (g *GELU) Params() []*Param { return nil }

// ReLU is the rectified linear unit, used by the lightweight CNN baseline.
type ReLU struct {
	mask []bool
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward applies max(0,x) elementwise.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := tensor.New(x.Shape...)
	if train {
		r.mask = make([]bool, len(x.Data))
	}
	for i, v := range x.Data {
		if v > 0 {
			y.Data[i] = v
			if train {
				r.mask[i] = true
			}
		}
	}
	return y
}

// Backward passes gradient only where the input was positive.
func (r *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if r.mask == nil {
		panic("nn: ReLU.Backward before Forward(train=true)")
	}
	dx := tensor.New(dy.Shape...)
	for i, m := range r.mask {
		if m {
			dx.Data[i] = dy.Data[i]
		}
	}
	return dx
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Sigmoid computes the logistic function elementwise; the detection head
// uses it for objectness and box offsets.
func Sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}
