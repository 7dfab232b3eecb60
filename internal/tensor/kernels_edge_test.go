package tensor

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// edgeShapes exercises the tiled kernels on dimensions that stress every
// boundary case: degenerate 1×1, tall-skinny, short-wide, sizes that are not
// multiples of the register tile width, and sizes large enough to cross the
// parallel-dispatch threshold.
var edgeShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},
	{2, 3, 2},
	{3, 1, 5},
	{5, 4, 3},
	{4, 4, 4},
	{7, 13, 11},
	{17, 33, 29},
	{257, 3, 2},   // tall-skinny
	{3, 500, 7},   // short-wide, long inner dim
	{64, 64, 64},  // tile-aligned
	{65, 66, 67},  // tile-aligned plus one
	{300, 96, 80}, // two tiles of minTileWork: forks at width 2 and up
}

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
		out := GetScratchNoZero(s.m, s.n)
		MatMulInto(out, a, b)
		if !out.AllClose(want, 1e-4, 1e-4) {
			t.Fatalf("MatMulInto (%d,%d)@(%d,%d) diverges from naive", s.m, s.k, s.k, s.n)
		}
		PutScratch(out)
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
		out := GetScratchNoZero(s.m, s.n)
		MatMulTInto(out, a, b)
		if !out.AllClose(want, 1e-4, 1e-4) {
			t.Fatalf("MatMulTInto (%d,%d)@(%d,%d)T diverges from naive", s.m, s.k, s.n, s.k)
		}
		PutScratch(out)
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
		out := GetScratchNoZero(s.m, s.n)
		TMatMulInto(out, a, b)
		if !out.AllClose(want, 1e-4, 1e-4) {
			t.Fatalf("TMatMulInto (%d,%d)T@(%d,%d) diverges from naive", s.k, s.m, s.k, s.n)
		}
		PutScratch(out)
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
		out := GetScratchNoZero(s.m)
		MatVecInto(out, a, x)
		if !out.AllClose(got, 0, 0) {
			t.Fatalf("MatVecInto differs from MatVec at (%d,%d)", s.m, s.k)
		}
		PutScratch(out)
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
		out := GetScratchNoZero(s.m, s.n)
		OuterInto(out, x, y)
		if !out.AllClose(got, 0, 0) {
			t.Fatalf("OuterInto differs from Outer at (%d,%d)", s.m, s.n)
		}
		PutScratch(out)
	}
}

func TestParallelForCoversRangeOnce(t *testing.T) {
	for _, n := range []int{0, 1, 3, 17, 100, 1000} {
		// Work per index from "every index its own tile" down to "one tile".
		for _, work := range []int{minTileWork, minTileWork / 4, minTileWork / 7, minTileWork / 64, 1, 0} {
			hits := make([]int32, n)
			ParallelFor(n, work, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d work=%d: index %d visited %d times", n, work, i, h)
				}
			}
		}
	}
}

// TestParallelForNested verifies the fork-join cannot deadlock when parallel
// regions nest (attention tiles dispatch GEMMs that may themselves try to
// parallelize).
func TestParallelForNested(t *testing.T) {
	var total atomic.Int64
	ParallelFor(8, minTileWork, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ParallelFor(100, minTileWork/10, func(ilo, ihi int) {
				total.Add(int64(ihi - ilo))
			})
		}
	})
	if got := total.Load(); got != 800 {
		t.Fatalf("nested ParallelFor covered %d of 800 elements", got)
	}
}

// forceWidth runs the test at a parallel width of at least 4 whatever the
// host offers, so the forked path is exercised on a single-core runner too.
func forceWidth(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestParallelForNestedStress nests three deep with a tile per index under 8
// concurrent outer callers: every level competes for the same helper slots,
// so calls at every depth see both the forked and the inline path. Each
// index triple must be visited exactly once per caller and every slot must
// be back when the callers return.
func TestParallelForNestedStress(t *testing.T) {
	forceWidth(t)
	const callers, a, b, c = 8, 5, 4, 3
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hits := make([]int32, a*b*c)
			ParallelFor(a, minTileWork, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					ParallelFor(b, minTileWork, func(jlo, jhi int) {
						for j := jlo; j < jhi; j++ {
							ParallelFor(c, minTileWork, func(klo, khi int) {
								for k := klo; k < khi; k++ {
									atomic.AddInt32(&hits[(i*b+j)*c+k], 1)
								}
							})
						}
					})
				}
			})
			for idx, h := range hits {
				if h != 1 {
					t.Errorf("index %d visited %d times", idx, h)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := helpers.Load(); n != 0 {
		t.Fatalf("%d helper slots still claimed after every call returned", n)
	}
}

// TestParallelForNoFreeSlotRunsInline: with every helper slot taken, a call
// covers [0,n) exactly once, as one tile, on the calling goroutine.
func TestParallelForNoFreeSlotRunsInline(t *testing.T) {
	forceWidth(t)
	taken := int32(Workers() - 1)
	helpers.Add(taken)
	defer helpers.Add(-taken)
	calls := 0 // unsynchronized on purpose: -race flags any helper goroutine
	ParallelFor(100, minTileWork, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 100 {
			t.Errorf("inline tile = [%d,%d), want [0,100)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("fn ran %d times, want once", calls)
	}
	if n := helpers.Load(); n != taken {
		t.Fatalf("an inline call left the slot count at %d, want %d", n, taken)
	}
}

// TestParallelForForkAllocs pins what a forked call costs beyond the tiles'
// own work: the shared state and one helper closure, whatever the width.
// (testing.AllocsPerRun pins GOMAXPROCS to 1, where nothing forks, so the
// count is taken from MemStats.)
func TestParallelForForkAllocs(t *testing.T) {
	forceWidth(t)
	var sink atomic.Int64
	fn := func(lo, hi int) { sink.Add(int64(hi - lo)) }
	const runs = 200
	for i := 0; i < 20; i++ { // warm the runtime's free goroutine list
		ParallelFor(64, minTileWork, fn)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		ParallelFor(64, minTileWork, fn)
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / runs; per > 3 {
		t.Fatalf("forked ParallelFor allocates %.1f objects/call, want <= 3", per)
	}
}

func TestScratchArenaReuse(t *testing.T) {
	a := GetScratch(33, 17)
	if a.Shape[0] != 33 || a.Shape[1] != 17 {
		t.Fatalf("GetScratch shape %v", a.Shape)
	}
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("GetScratch returned non-zeroed buffer")
		}
	}
	a.Data[0] = 42
	PutScratch(a)
	if a.Data != nil {
		t.Fatal("PutScratch must nil the Data slice")
	}
	// Same size class: the next NoZero Get should hand back pooled storage
	// (not guaranteed by sync.Pool, but must at least be usable and sized).
	b := GetScratchNoZero(40, 20)
	if len(b.Data) != 800 {
		t.Fatalf("GetScratchNoZero len %d want 800", len(b.Data))
	}
	c := GetScratch(40, 20)
	for _, v := range c.Data {
		if v != 0 {
			t.Fatal("GetScratch must zero recycled buffers")
		}
	}
	PutScratch(b, c, nil) // nil entries are skipped
}
