package nn

import (
	"math"

	"itask/internal/tensor"
)

// LayerNorm normalizes each row of a (rows, Dim) activation to zero mean
// and unit variance, then applies a learned affine transform
// y = gamma * xhat + beta.
type LayerNorm struct {
	Dim   int
	Eps   float32
	Gamma *Param
	Beta  *Param

	// caches for backward, set by a training forward only
	xhat   *tensor.Tensor
	invStd []float32
}

// NewLayerNorm creates a LayerNorm over the last dimension of width dim,
// initialized to the identity transform (gamma=1, beta=0).
func NewLayerNorm(name string, dim int) *LayerNorm {
	return &LayerNorm{
		Dim:   dim,
		Eps:   1e-5,
		Gamma: NewParam(name+".gamma", tensor.Ones(dim)),
		Beta:  NewParam(name+".beta", tensor.New(dim)),
	}
}

// Forward normalizes each row and applies the affine transform. Inference
// (train == false) runs the float32 kernel and allocates only y; training
// keeps its statistics in float64 and caches xhat and invStd for Backward.
func (l *LayerNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	checkRank("LayerNorm.Forward", x, 2)
	rows, d := x.Shape[0], x.Shape[1]
	if d != l.Dim {
		panic("nn: LayerNorm dim mismatch")
	}
	y := tensor.New(rows, d)
	if !train {
		tensor.LayerNormF32Into(y, x, l.Gamma.W.Data, l.Beta.W.Data, l.Eps)
		return y
	}
	xhat := tensor.New(rows, d)
	invStd := make([]float32, rows)
	for i := 0; i < rows; i++ {
		row := x.Data[i*d : (i+1)*d]
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(d)
		var variance float64
		for _, v := range row {
			dlt := float64(v) - mean
			variance += dlt * dlt
		}
		variance /= float64(d)
		is := float32(1 / math.Sqrt(variance+float64(l.Eps)))
		invStd[i] = is
		xh := xhat.Data[i*d : (i+1)*d]
		yr := y.Data[i*d : (i+1)*d]
		for j, v := range row {
			h := (v - float32(mean)) * is
			xh[j] = h
			yr[j] = l.Gamma.W.Data[j]*h + l.Beta.W.Data[j]
		}
	}
	l.xhat = xhat
	l.invStd = invStd
	return y
}

// Backward implements the standard LayerNorm gradient:
//
//	dx = invStd/D * gamma ⊙ (D*dy' - sum(dy') - xhat*sum(dy'*xhat))
//
// where dy' = dy (per-element, gamma applied), computed row-wise.
func (l *LayerNorm) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if l.xhat == nil {
		panic("nn: LayerNorm.Backward before Forward(train=true)")
	}
	rows, d := dy.Shape[0], dy.Shape[1]
	dx := tensor.New(rows, d)
	gG := l.Gamma.G.Data
	bG := l.Beta.G.Data
	for i := 0; i < rows; i++ {
		dyr := dy.Data[i*d : (i+1)*d]
		xh := l.xhat.Data[i*d : (i+1)*d]
		dxr := dx.Data[i*d : (i+1)*d]
		var sumDY, sumDYX float64
		for j, g := range dyr {
			// parameter grads
			gG[j] += g * xh[j]
			bG[j] += g
			dyg := float64(g) * float64(l.Gamma.W.Data[j])
			sumDY += dyg
			sumDYX += dyg * float64(xh[j])
		}
		is := float64(l.invStd[i])
		df := float64(d)
		for j, g := range dyr {
			dyg := float64(g) * float64(l.Gamma.W.Data[j])
			dxr[j] = float32(is / df * (df*dyg - sumDY - float64(xh[j])*sumDYX))
		}
	}
	return dx
}

// Params returns gamma and beta.
func (l *LayerNorm) Params() []*Param { return []*Param{l.Gamma, l.Beta} }
