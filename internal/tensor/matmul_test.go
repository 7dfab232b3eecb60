package tensor

import (
	"testing"
	"testing/quick"
)

// matMulNaive is an obviously-correct reference implementation used to
// validate the optimized kernels.
func matMulNaive(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
	want := FromSlice([]float32{58, 64, 139, 154}, 2, 2)
	if !got.Equal(want) {
		t.Errorf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := NewRNG(1)
	a := Randn(rng, 1, 7, 7)
	id := New(7, 7)
	for i := 0; i < 7; i++ {
		id.Set(1, i, i)
	}
	if !MatMul(a, id).AllClose(a, 1e-6, 1e-6) {
		t.Error("A @ I != A")
	}
	if !MatMul(id, a).AllClose(a, 1e-6, 1e-6) {
		t.Error("I @ A != A")
	}
}

func TestMatMulMatchesNaiveProperty(t *testing.T) {
	rng := NewRNG(2)
	f := func(ms, ks, ns uint8) bool {
		m := int(ms%12) + 1
		k := int(ks%12) + 1
		n := int(ns%12) + 1
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		return MatMul(a, b).AllClose(matMulNaive(a, b), 1e-4, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMatMulParallelPath(t *testing.T) {
	// A product larger than any serving model's GEMM; verify against the
	// naive kernel.
	rng := NewRNG(3)
	a := Randn(rng, 1, 640, 48)
	b := Randn(rng, 1, 48, 80)
	if !MatMul(a, b).AllClose(matMulNaive(a, b), 1e-3, 1e-3) {
		t.Error("large MatMul diverges from naive reference")
	}
}

func TestMatMulT(t *testing.T) {
	rng := NewRNG(4)
	a := Randn(rng, 1, 5, 9)
	b := Randn(rng, 1, 6, 9) // (N,K)
	got := MatMulT(a, b)
	want := matMulNaive(a, b.Transpose())
	if !got.AllClose(want, 1e-4, 1e-4) {
		t.Error("MatMulT != A @ Bᵀ")
	}
}

func TestMatMulTParallelPath(t *testing.T) {
	rng := NewRNG(41)
	a := Randn(rng, 1, 640, 64)
	b := Randn(rng, 1, 72, 64)
	got := MatMulT(a, b)
	want := matMulNaive(a, b.Transpose())
	if !got.AllClose(want, 1e-3, 1e-3) {
		t.Error("large MatMulT diverges")
	}
}

func TestTMatMul(t *testing.T) {
	rng := NewRNG(5)
	a := Randn(rng, 1, 9, 5) // (K,M)
	b := Randn(rng, 1, 9, 7) // (K,N)
	got := TMatMul(a, b)
	want := matMulNaive(a.Transpose(), b)
	if !got.AllClose(want, 1e-4, 1e-4) {
		t.Error("TMatMul != Aᵀ @ B")
	}
}

func TestMatMulInto(t *testing.T) {
	rng := NewRNG(6)
	a := Randn(rng, 1, 4, 3)
	b := Randn(rng, 1, 3, 5)
	out := Full(99, 4, 5) // pre-filled garbage must be overwritten
	MatMulInto(out, a, b)
	if !out.AllClose(matMulNaive(a, b), 1e-5, 1e-5) {
		t.Error("MatMulInto wrong result")
	}
}

func TestMatMulDimMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"MatMul":  func() { MatMul(New(2, 3), New(4, 5)) },
		"MatMulT": func() { MatMulT(New(2, 3), New(4, 5)) },
		"TMatMul": func() { TMatMul(New(2, 3), New(4, 5)) },
		"rank":    func() { MatMul(New(2), New(2, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := NewRNG(1)
	x := Randn(rng, 1, 128, 128)
	y := Randn(rng, 1, 128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkMatMulT128(b *testing.B) {
	rng := NewRNG(1)
	x := Randn(rng, 1, 128, 128)
	y := Randn(rng, 1, 128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulT(x, y)
	}
}
