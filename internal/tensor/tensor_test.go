package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapes(t *testing.T) {
	cases := []struct {
		shape []int
		size  int
	}{
		{nil, 1},
		{[]int{0}, 0},
		{[]int{5}, 5},
		{[]int{2, 3}, 6},
		{[]int{2, 3, 4}, 24},
		{[]int{1, 1, 1, 1}, 1},
	}
	for _, c := range cases {
		tt := New(c.shape...)
		if tt.Size() != c.size {
			t.Errorf("New(%v).Size() = %d, want %d", c.shape, tt.Size(), c.size)
		}
		if len(tt.Data) != c.size {
			t.Errorf("New(%v) len(Data) = %d, want %d", c.shape, len(tt.Data), c.size)
		}
		for _, v := range tt.Data {
			if v != 0 {
				t.Errorf("New(%v) not zero-filled", c.shape)
			}
		}
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	New(2, -1)
}

func TestAtSetRoundTrip(t *testing.T) {
	tt := New(3, 4, 5)
	k := float32(0)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			for l := 0; l < 5; l++ {
				tt.Set(k, i, j, l)
				k++
			}
		}
	}
	// Row-major: flat index should be i*20 + j*5 + l.
	if got := tt.At(1, 2, 3); got != float32(1*20+2*5+3) {
		t.Errorf("At(1,2,3) = %v, want %v", got, 1*20+2*5+3)
	}
	if got := tt.Data[33]; got != 33 {
		t.Errorf("Data[33] = %v, want 33", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	tt := New(2, 2)
	for _, idx := range [][]int{{2, 0}, {0, 2}, {-1, 0}, {0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for index %v", idx)
				}
			}()
			tt.At(idx...)
		}()
	}
}

func TestFromSlice(t *testing.T) {
	d := []float32{1, 2, 3, 4, 5, 6}
	tt := FromSlice(d, 2, 3)
	if tt.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v, want 6", tt.At(1, 2))
	}
	// Shared backing store.
	d[0] = 42
	if tt.At(0, 0) != 42 {
		t.Error("FromSlice should share backing data")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for wrong-size slice")
			}
		}()
		FromSlice(d, 7)
	}()
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Error("Clone is not deep")
	}
	if !a.SameShape(b) {
		t.Error("Clone changed shape")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Data[5] = 60
	if a.At(1, 2) != 60 {
		t.Error("Reshape should share data")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for size-changing reshape")
			}
		}()
		a.Reshape(4, 2)
	}()
}

func TestRowAndSlice2D(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 3, 2)
	r := a.Row(1)
	if r.Shape[0] != 2 || r.Data[0] != 3 || r.Data[1] != 4 {
		t.Errorf("Row(1) = %v", r.Data)
	}
	// Views share data.
	r.Data[0] = -3
	if a.At(1, 0) != -3 {
		t.Error("Row should be a view")
	}
}

func TestTranspose(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	at := a.Transpose()
	want := FromSlice([]float32{1, 4, 2, 5, 3, 6}, 3, 2)
	if !at.Equal(want) {
		t.Errorf("Transpose = %v, want %v", at, want)
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	rng := NewRNG(7)
	f := func(rSeed, cSeed uint8) bool {
		r := int(rSeed%17) + 1
		c := int(cSeed%19) + 1
		a := Randn(rng, 1, r, c)
		return a.Transpose().Transpose().Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAddSubMul(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{10, 20, 30, 40}, 2, 2)
	if got := Add(a, b); !got.Equal(FromSlice([]float32{11, 22, 33, 44}, 2, 2)) {
		t.Errorf("Add = %v", got)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a := New(2, 2)
	b := New(2, 3)
	for name, f := range map[string]func(){
		"Add":        func() { Add(a, b) },
		"AddInPlace": func() { a.AddInPlace(b) },
		"Dot":        func() { Dot(a, b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected shape-mismatch panic", name)
				}
			}()
			f()
		}()
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	a.AddInPlace(FromSlice([]float32{1, 1, 1}, 3))
	a.ScaleInPlace(2)
	want := FromSlice([]float32{4, 6, 8}, 3)
	if !a.Equal(want) {
		t.Errorf("in-place chain = %v, want %v", a, want)
	}
}

func TestAddRowVector(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	a.AddRowVector(FromSlice([]float32{10, 20, 30}, 3))
	want := FromSlice([]float32{11, 22, 33, 14, 25, 36}, 2, 3)
	if !a.Equal(want) {
		t.Errorf("AddRowVector = %v", a)
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float32{3, -1, 4, -1, 5}, 5)
	if a.Sum() != 10 {
		t.Errorf("Sum = %v", a.Sum())
	}
	if a.Max() != 5 || a.Min() != -1 || a.AbsMax() != 5 {
		t.Errorf("Max/Min/AbsMax = %v/%v/%v", a.Max(), a.Min(), a.AbsMax())
	}
}

func TestSumRows(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	got := a.SumRows()
	if !got.Equal(FromSlice([]float32{5, 7, 9}, 3)) {
		t.Errorf("SumRows = %v", got)
	}
}

func TestSoftmaxRows(t *testing.T) {
	a := FromSlice([]float32{0, 0, 1000, 1000}, 2, 2) // large values: stability check
	s := SoftmaxRows(a)
	for i := 0; i < 2; i++ {
		row := s.Data[i*2 : (i+1)*2]
		sum := row[0] + row[1]
		if math.Abs(float64(sum)-1) > 1e-5 {
			t.Errorf("row %d sums to %v", i, sum)
		}
		if math.Abs(float64(row[0])-0.5) > 1e-5 {
			t.Errorf("row %d expected uniform, got %v", i, row)
		}
	}
}

func TestSoftmaxRowsSumToOneProperty(t *testing.T) {
	rng := NewRNG(11)
	f := func(rs, cs uint8) bool {
		r := int(rs%8) + 1
		c := int(cs%16) + 1
		a := Randn(rng, 5, r, c)
		s := SoftmaxRows(a)
		for i := 0; i < r; i++ {
			var sum float64
			for j := 0; j < c; j++ {
				v := s.At(i, j)
				if v < 0 || v > 1 {
					return false
				}
				sum += float64(v)
			}
			if math.Abs(sum-1) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLogSumExpRows(t *testing.T) {
	a := FromSlice([]float32{0, 0}, 1, 2)
	got := LogSumExpRows(a)[0]
	want := float32(math.Log(2))
	if math.Abs(float64(got-want)) > 1e-6 {
		t.Errorf("LogSumExp = %v, want %v", got, want)
	}
	// Stability with huge values.
	b := FromSlice([]float32{1000, 1000}, 1, 2)
	got = LogSumExpRows(b)[0]
	want = 1000 + float32(math.Log(2))
	if math.Abs(float64(got-want)) > 1e-3 {
		t.Errorf("LogSumExp large = %v, want %v", got, want)
	}
}

func TestApplyAndClamp(t *testing.T) {
	a := FromSlice([]float32{-2, -1, 0, 1, 2}, 5)
	sq := Apply(a, func(v float32) float32 { return v * v })
	if !sq.Equal(FromSlice([]float32{4, 1, 0, 1, 4}, 5)) {
		t.Errorf("Apply = %v", sq)
	}
}

func TestAllClose(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{1.0001, 2.0001, 3.0001}, 3)
	if !a.AllClose(b, 1e-3, 1e-3) {
		t.Error("AllClose should accept small differences")
	}
	if a.AllClose(FromSlice([]float32{1, 2, 4}, 3), 1e-3, 1e-3) {
		t.Error("AllClose should reject large differences")
	}
	if a.AllClose(New(4), 1, 1) {
		t.Error("AllClose should reject shape mismatch")
	}
}

func TestNorm2AndDot(t *testing.T) {
	a := FromSlice([]float32{3, 4}, 2)
	if a.Norm2() != 5 {
		t.Errorf("Norm2 = %v", a.Norm2())
	}
	b := FromSlice([]float32{1, 2}, 2)
	if Dot(a, b) != 11 {
		t.Errorf("Dot = %v", Dot(a, b))
	}
}
