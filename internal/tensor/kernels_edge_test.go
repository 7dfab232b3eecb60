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
	}
}
