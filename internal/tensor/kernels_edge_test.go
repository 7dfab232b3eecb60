package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// edgeShapes exercises the register-tiled kernels on dimensions that stress
// every boundary case: degenerate 1×1, tall-skinny, short-wide, sizes that
// are not multiples of the register tile width, and one well past any
// serving model's GEMM.
var edgeShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},
	{2, 3, 2},
	{3, 1, 5},
	{5, 4, 3},
	{4, 4, 4},
	{7, 13, 11},
	{17, 33, 29},
	{257, 3, 2},  // tall-skinny
	{3, 500, 7},  // short-wide, long inner dim
	{64, 64, 64}, // tile-aligned
	{65, 66, 67}, // tile-aligned plus one
	{300, 96, 80},
}

// dirty is a destination full of NaN: an Into kernel must overwrite every
// element.
func dirty(shape ...int) *Tensor { return Full(float32(math.NaN()), shape...) }

func randMat(rng *rand.Rand, r, c int) *Tensor {
	t := New(r, c)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

func TestMatMulEdgeShapesVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range edgeShapes {
		a := randMat(rng, s.m, s.k)
		b := randMat(rng, s.k, s.n)
		want := matMulNaive(a, b)
		if got := MatMul(a, b); !got.AllClose(want, 1e-4, 1e-4) {
			t.Fatalf("MatMul (%d,%d)@(%d,%d) diverges from naive", s.m, s.k, s.k, s.n)
		}
		out := dirty(s.m, s.n)
		MatMulInto(out, a, b)
		if !out.AllClose(want, 1e-4, 1e-4) {
			t.Fatalf("MatMulInto (%d,%d)@(%d,%d) diverges from naive", s.m, s.k, s.k, s.n)
		}
	}
}

func TestMatMulTEdgeShapesVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, s := range edgeShapes {
		a := randMat(rng, s.m, s.k)
		b := randMat(rng, s.n, s.k) // (n,k): MatMulT computes a @ bᵀ
		want := matMulNaive(a, b.Transpose())
		if got := MatMulT(a, b); !got.AllClose(want, 1e-4, 1e-4) {
			t.Fatalf("MatMulT (%d,%d)@(%d,%d)T diverges from naive", s.m, s.k, s.n, s.k)
		}
	}
}

func TestTMatMulEdgeShapesVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, s := range edgeShapes {
		a := randMat(rng, s.k, s.m) // (k,m): TMatMul computes aᵀ @ b
		b := randMat(rng, s.k, s.n)
		want := matMulNaive(a.Transpose(), b)
		if got := TMatMul(a, b); !got.AllClose(want, 1e-4, 1e-4) {
			t.Fatalf("TMatMul (%d,%d)T@(%d,%d) diverges from naive", s.k, s.m, s.k, s.n)
		}
		out := dirty(s.m, s.n)
		TMatMulInto(out, a, b)
		if !out.AllClose(want, 1e-4, 1e-4) {
			t.Fatalf("TMatMulInto (%d,%d)T@(%d,%d) diverges from naive", s.k, s.m, s.k, s.n)
		}
	}
}

func TestMatVecEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, s := range edgeShapes {
		a := randMat(rng, s.m, s.k)
		x := New(s.k)
		for i := range x.Data {
			x.Data[i] = float32(rng.NormFloat64())
		}
		got := MatVec(a, x)
		for i := 0; i < s.m; i++ {
			var want float64
			for j := 0; j < s.k; j++ {
				want += float64(a.Data[i*s.k+j]) * float64(x.Data[j])
			}
			if diff := float64(got.Data[i]) - want; diff > 1e-3 || diff < -1e-3 {
				t.Fatalf("MatVec (%d,%d) row %d: got %v want %v", s.m, s.k, i, got.Data[i], want)
			}
		}
		out := dirty(s.m)
		MatVecInto(out, a, x)
		if !out.AllClose(got, 0, 0) {
			t.Fatalf("MatVecInto differs from MatVec at (%d,%d)", s.m, s.k)
		}
	}
}

func TestOuterEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, s := range edgeShapes {
		x := New(s.m)
		y := New(s.n)
		for i := range x.Data {
			x.Data[i] = float32(rng.NormFloat64())
		}
		for i := range y.Data {
			y.Data[i] = float32(rng.NormFloat64())
		}
		got := Outer(x, y)
		for i := 0; i < s.m; i++ {
			for j := 0; j < s.n; j++ {
				if want := x.Data[i] * y.Data[j]; got.Data[i*s.n+j] != want {
					t.Fatalf("Outer (%d,%d) at (%d,%d): got %v want %v", s.m, s.n, i, j, got.Data[i*s.n+j], want)
				}
			}
		}
		out := dirty(s.m, s.n)
		OuterInto(out, x, y)
		if !out.AllClose(got, 0, 0) {
			t.Fatalf("OuterInto differs from Outer at (%d,%d)", s.m, s.n)
		}
	}
}
