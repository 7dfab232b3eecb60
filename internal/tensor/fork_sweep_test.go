package tensor

import (
	"fmt"
	"testing"
	"time"

	"itask/internal/kernels"
)

// BenchmarkForkSweep is the measurement minTileWork is read from (table in
// DESIGN.md §8). For every GEMM the two serving models run at batch 1 and
// batch 8, and a ladder of taller ones up to training size, it times one
// lone call inline and one cut into the tiles ParallelFor would cut it into
// if the rule let it (two per worker), at the width the benchmark runs at:
//
//	go test -run=NONE -bench=ForkSweep -benchtime=1x -cpu 1,2,4 ./internal/tensor/
//
// A shape is worth forking only where the forked column wins at every width
// above 1; the constant is the smallest tile (MACs/tiles) at which it does.
func BenchmarkForkSweep(b *testing.B) {
	type shape struct {
		name    string
		m, k, n int
		int8    bool
	}
	var shapes []shape
	// Generalist (int8): 16 tokens, dim 48, MLP 96, 19 detection outputs.
	// Student (float): 16 tokens, dim 32, MLP 64.
	for _, batch := range []int{1, 8} {
		m := 16 * batch
		for _, s := range []shape{
			{"q.embed", m, 192, 48, true}, {"q.qkv", m, 48, 144, true}, {"q.proj", m, 48, 48, true},
			{"q.mlp1", m, 48, 96, true}, {"q.mlp2", m, 96, 48, true}, {"q.det", m, 48, 19, true},
			{"f.embed", m, 192, 32, false}, {"f.qkv", m, 32, 96, false}, {"f.proj", m, 32, 32, false},
			{"f.mlp1", m, 32, 64, false}, {"f.mlp2", m, 64, 32, false}, {"f.det", m, 32, 19, false},
		} {
			s.name = fmt.Sprintf("%s/b%d", s.name, batch)
			shapes = append(shapes, s)
		}
	}
	for _, m := range []int{256, 512, 1024, 2048, 4096} {
		shapes = append(shapes,
			shape{fmt.Sprintf("q.qkv/m%d", m), m, 48, 144, true},
			shape{fmt.Sprintf("f.qkv/m%d", m), m, 32, 96, false})
	}
	w := Workers()
	fmt.Printf("\nfork sweep at width %d: one lone call, µs (best of 5 × 200)\n", w)
	fmt.Printf("%-14s %5s %4s %4s %9s %9s %9s %10s\n", "shape", "m", "k", "n", "MACs", "inline", "forked", "tile MACs")
	for _, s := range shapes {
		body := floatTile(s.m, s.k, s.n)
		if s.int8 {
			body = int8Tile(s.m, s.k, s.n)
		}
		tiles := min(2*w, s.m)
		inline := lone(func() { runTiles(s.m, 1, body) })
		forked := lone(func() { runTiles(s.m, tiles, body) })
		fmt.Printf("%-14s %5d %4d %4d %9d %9.1f %9.1f %10d\n", s.name, s.m, s.k, s.n, s.m*s.k*s.n,
			float64(inline.Nanoseconds())/1e3, float64(forked.Nanoseconds())/1e3, s.m*s.k*s.n/tiles)
	}
	for i := 0; i < b.N; i++ { // the table above is the result
	}
}

// lone returns the per-call time of fn: the fastest of five runs of 200.
func lone(fn func()) time.Duration {
	best := time.Duration(1 << 62)
	for r := 0; r < 5; r++ {
		start := time.Now()
		for i := 0; i < 200; i++ {
			fn()
		}
		best = min(best, time.Since(start)/200)
	}
	return best
}

// floatTile is a tile of MatMulTInto: rows [lo,hi) of a @ bᵀ.
func floatTile(m, k, n int) func(lo, hi int) {
	rng := NewRNG(1)
	a, w, out := Randn(rng, 1, m, k), Randn(rng, 1, n, k), New(m, n)
	return func(lo, hi int) { matMulTRows(out.Data, a.Data, w.Data, lo, hi, k, n) }
}

// int8Tile is a tile of quant.GEMM: the int8 kernel and its epilogue over
// rows [lo,hi) of the output and of the shared accumulator.
func int8Tile(m, k, n int) func(lo, hi int) {
	a, w := make([]int8, m*k), make([]int8, n*k)
	for i := range a {
		a[i] = int8(i*7 + 3)
	}
	for i := range w {
		w[i] = int8(i*5 + 1)
	}
	rowSums, scales, bias, out := make([]int32, n), make([]float32, n), make([]float32, n), make([]float32, m*n)
	acc := make([]int32, m*n)
	return func(lo, hi int) {
		rows := hi - lo
		kernels.GemmI8(acc[lo*n:hi*n], a[lo*k:hi*k], w, rows, k, n)
		kernels.DequantI8(out[lo*n:hi*n], acc[lo*n:hi*n], rowSums, scales, bias, rows, n, 0.01, 3)
	}
}
