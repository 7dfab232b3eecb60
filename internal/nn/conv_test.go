package nn

import (
	"testing"

	"itask/internal/tensor"
)

func TestConv2DIdentityKernel(t *testing.T) {
	rng := tensor.NewRNG(1)
	// 1x1 kernel with weight 1: convolution must be the identity.
	c := NewConv2D("c", 1, 1, 1, 1, 4, 4, rng)
	c.Weight.W.CopyFrom(tensor.Ones(c.Weight.W.Shape...))
	c.Bias.W.Zero()
	x := tensor.Randn(rng, 1, 2, 16)
	y := c.Forward(x, false)
	if !y.AllClose(x, 1e-6, 1e-6) {
		t.Error("1x1 identity convolution should preserve input")
	}
}

func TestConv2DKnownValue(t *testing.T) {
	rng := tensor.NewRNG(2)
	// 3x3 all-ones kernel on an all-ones 4x4 image: interior outputs are 9,
	// edges 6, corners 4 (zero padding).
	c := NewConv2D("c", 1, 1, 3, 1, 4, 4, rng)
	c.Weight.W.CopyFrom(tensor.Ones(c.Weight.W.Shape...))
	c.Bias.W.Zero()
	x := tensor.Ones(1, 16)
	y := c.Forward(x, false)
	if y.Data[0] != 4 { // corner
		t.Errorf("corner = %v, want 4", y.Data[0])
	}
	if y.Data[1] != 6 { // edge
		t.Errorf("edge = %v, want 6", y.Data[1])
	}
	if y.Data[5] != 9 { // interior
		t.Errorf("interior = %v, want 9", y.Data[5])
	}
}

func TestConv2DStride(t *testing.T) {
	rng := tensor.NewRNG(3)
	c := NewConv2D("c", 2, 4, 3, 2, 8, 8, rng)
	if c.OutH() != 4 || c.OutW() != 4 {
		t.Fatalf("out dims %dx%d, want 4x4", c.OutH(), c.OutW())
	}
	x := tensor.Randn(rng, 1, 3, 2*8*8)
	y := c.Forward(x, false)
	if y.Shape[0] != 3 || y.Shape[1] != 4*4*4 {
		t.Fatalf("output shape %v", y.Shape)
	}
}

func TestConv2DGradients(t *testing.T) {
	rng := tensor.NewRNG(4)
	c := NewConv2D("c", 2, 3, 3, 1, 5, 4, rng)
	x := tensor.Randn(rng, 1, 2, 2*5*4)
	checkGradients(t, "Conv2D", c, x, 3e-2)
}

func TestConv2DStridedGradients(t *testing.T) {
	rng := tensor.NewRNG(5)
	c := NewConv2D("c", 1, 2, 3, 2, 6, 6, rng)
	x := tensor.Randn(rng, 1, 2, 36)
	checkGradients(t, "Conv2D-s2", c, x, 3e-2)
}

func TestConv2DValidation(t *testing.T) {
	rng := tensor.NewRNG(6)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("even kernel should panic")
			}
		}()
		NewConv2D("c", 1, 1, 2, 1, 4, 4, rng)
	}()
	c := NewConv2D("c", 1, 1, 3, 1, 4, 4, rng)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong input width should panic")
			}
		}()
		c.Forward(tensor.New(1, 15), false)
	}()
}

func TestMaxPool2DForward(t *testing.T) {
	p := NewMaxPool2D(1, 4, 4)
	x := tensor.New(1, 16)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	y := p.Forward(x, false)
	// Windows: max of {0,1,4,5}=5, {2,3,6,7}=7, {8,9,12,13}=13, {10,11,14,15}=15.
	want := []float32{5, 7, 13, 15}
	for i, w := range want {
		if y.Data[i] != w {
			t.Errorf("pool[%d] = %v, want %v", i, y.Data[i], w)
		}
	}
}

func TestMaxPool2DBackwardRouting(t *testing.T) {
	p := NewMaxPool2D(1, 4, 4)
	x := tensor.New(1, 16)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	p.Forward(x, true)
	dy := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 4)
	dx := p.Backward(dy)
	// Gradient lands exactly at the max positions (5, 7, 13, 15).
	for i, v := range dx.Data {
		switch i {
		case 5:
			if v != 1 {
				t.Errorf("dx[5] = %v", v)
			}
		case 7:
			if v != 2 {
				t.Errorf("dx[7] = %v", v)
			}
		case 13:
			if v != 3 {
				t.Errorf("dx[13] = %v", v)
			}
		case 15:
			if v != 4 {
				t.Errorf("dx[15] = %v", v)
			}
		default:
			if v != 0 {
				t.Errorf("dx[%d] = %v, want 0", i, v)
			}
		}
	}
}

func TestMaxPool2DGradients(t *testing.T) {
	rng := tensor.NewRNG(7)
	p := NewMaxPool2D(2, 4, 4)
	x := tensor.Randn(rng, 1, 2, 32)
	// Separate values so ties don't break finite differences at kinks.
	for i := range x.Data {
		x.Data[i] += float32(i) * 0.01
	}
	checkGradients(t, "MaxPool2D", p, x, 3e-2)
}

func TestConvNetComposition(t *testing.T) {
	rng := tensor.NewRNG(8)
	// conv -> relu -> pool -> linear: the baseline-detector building blocks
	// compose through Sequential.
	conv := NewConv2D("c", 3, 8, 3, 1, 8, 8, rng)
	pool := NewMaxPool2D(8, 8, 8)
	net := NewSequential(
		conv,
		NewReLU(),
		pool,
		NewLinear("fc", pool.OutFeatures(), 10, rng),
	)
	x := tensor.Randn(rng, 1, 2, 3*8*8)
	y := net.Forward(x, true)
	if y.Shape[0] != 2 || y.Shape[1] != 10 {
		t.Fatalf("output shape %v", y.Shape)
	}
	dy := tensor.Randn(rng, 1, 2, 10)
	dx := net.Backward(dy)
	if dx.Shape[0] != 2 || dx.Shape[1] != 3*8*8 {
		t.Fatalf("input grad shape %v", dx.Shape)
	}
}
