// Package nn implements the neural-network layers used by the iTask vision
// transformer, with explicit layer-level automatic differentiation: every
// layer caches what it needs during Forward and produces input gradients and
// parameter gradients during Backward. There is no global tape; the call
// graph IS the tape, which keeps memory behaviour predictable on small
// devices and makes each layer's math independently gradient-checkable.
//
// Convention: activations flow as 2-D tensors of shape (rows, features),
// where rows is batch*tokens for transformer trunks. Layers that need the
// sequence structure (attention) are told the token count at construction.
//
// A forward computes the same value whether it trains or not: LayerNorm,
// GELU and attention's softmax run the float32 inference kernels
// (internal/kernels) in both modes, and every product is one GemmF32 call,
// so a model trains on exactly the function it serves.
package nn

import (
	"fmt"
	"math"

	"itask/internal/tensor"
)

// Param is a trainable tensor with its gradient accumulator.
type Param struct {
	// Name identifies the parameter in checkpoints and debug output,
	// e.g. "block3.attn.qkv.weight".
	Name string
	// W is the parameter value.
	W *tensor.Tensor
	// G is the gradient, accumulated by Backward calls and consumed
	// (then zeroed) by the optimizer.
	G *tensor.Tensor
}

// NewParam wraps w as a named parameter with a zero gradient.
func NewParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, G: tensor.New(w.Shape...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.G.Zero() }

// NumEl returns the number of scalar values in the parameter.
func (p *Param) NumEl() int { return p.W.Size() }

// Layer is a differentiable computation. Forward must be called before
// Backward; Backward consumes the upstream gradient dy (same shape as
// Forward's output), accumulates parameter gradients, and returns the
// gradient w.r.t. Forward's input.
//
// Layers are stateful across a Forward/Backward pair (they cache
// activations) and therefore not safe for concurrent use; inference-only
// paths that need concurrency should clone the model per goroutine.
type Layer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(dy *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// ZeroGrads clears gradients of all params in ps.
func ZeroGrads(ps []*Param) {
	for _, p := range ps {
		p.ZeroGrad()
	}
}

// CountParams returns the total scalar parameter count.
func CountParams(ps []*Param) int {
	n := 0
	for _, p := range ps {
		n += p.NumEl()
	}
	return n
}

// GradNorm returns the global L2 norm of all gradients, used for clipping
// and for training diagnostics.
func GradNorm(ps []*Param) float32 {
	var s float64
	for _, p := range ps {
		for _, g := range p.G.Data {
			s += float64(g) * float64(g)
		}
	}
	return float32(math.Sqrt(s))
}

// ClipGradNorm scales all gradients down so their global L2 norm is at most
// maxNorm. Returns the pre-clip norm.
func ClipGradNorm(ps []*Param, maxNorm float32) float32 {
	n := GradNorm(ps)
	if n > maxNorm && n > 0 {
		scale := maxNorm / n
		for _, p := range ps {
			p.G.ScaleInPlace(scale)
		}
	}
	return n
}

// checkRank panics unless t has the wanted rank.
func checkRank(op string, t *tensor.Tensor, rank int) {
	if t.Dims() != rank {
		panic(fmt.Sprintf("nn: %s: want rank-%d input, got shape %v", op, rank, t.Shape))
	}
}
