package nn

import (
	"math"

	"itask/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients and then
// clears the gradients.
type Optimizer interface {
	// Step applies one update to every parameter and zeroes gradients.
	Step(params []*Param)
	// SetLR overrides the current learning rate (used by schedules).
	SetLR(lr float32)
	// LR reports the current learning rate.
	LR() float32
}

// Adam is the Adam optimizer (Kingma & Ba) with decoupled weight decay
// (AdamW-style): decay is applied to weights directly, not mixed into the
// moment estimates.
type Adam struct {
	lr             float32
	Beta1, Beta2   float32
	Eps            float32
	Decay          float32
	step           int
	moment, second map[*Param]*tensor.Tensor
}

// NewAdam creates an Adam optimizer with standard betas (0.9, 0.999).
func NewAdam(lr float32) *Adam {
	return &Adam{
		lr: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		moment: map[*Param]*tensor.Tensor{}, second: map[*Param]*tensor.Tensor{},
	}
}

// NewAdamW creates Adam with decoupled weight decay.
func NewAdamW(lr, decay float32) *Adam {
	a := NewAdam(lr)
	a.Decay = decay
	return a
}

// Step applies one Adam update.
func (o *Adam) Step(params []*Param) {
	o.step++
	bc1 := 1 - float32(math.Pow(float64(o.Beta1), float64(o.step)))
	bc2 := 1 - float32(math.Pow(float64(o.Beta2), float64(o.step)))
	for _, p := range params {
		m := o.moment[p]
		if m == nil {
			m = tensor.New(p.W.Shape...)
			o.moment[p] = m
		}
		v := o.second[p]
		if v == nil {
			v = tensor.New(p.W.Shape...)
			o.second[p] = v
		}
		if o.Decay != 0 {
			p.W.ScaleInPlace(1 - o.lr*o.Decay)
		}
		for i, g := range p.G.Data {
			m.Data[i] = o.Beta1*m.Data[i] + (1-o.Beta1)*g
			v.Data[i] = o.Beta2*v.Data[i] + (1-o.Beta2)*g*g
			mhat := m.Data[i] / bc1
			vhat := v.Data[i] / bc2
			p.W.Data[i] -= o.lr * mhat / (float32(math.Sqrt(float64(vhat))) + o.Eps)
		}
		p.ZeroGrad()
	}
}

// SetLR sets the learning rate.
func (o *Adam) SetLR(lr float32) { o.lr = lr }

// LR returns the learning rate.
func (o *Adam) LR() float32 { return o.lr }

// CosineSchedule returns the learning rate for step t of total steps,
// warming up linearly for warmup steps and then decaying on a half cosine
// from base to floor.
func CosineSchedule(base, floor float32, warmup, total, t int) float32 {
	if total <= 0 {
		return base
	}
	if t < warmup {
		return base * float32(t+1) / float32(warmup+1)
	}
	if t >= total {
		return floor
	}
	progress := float64(t-warmup) / float64(total-warmup)
	c := 0.5 * (1 + math.Cos(math.Pi*progress))
	return floor + (base-floor)*float32(c)
}
