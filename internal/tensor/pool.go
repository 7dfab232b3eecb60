package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The kernels in this package parallelize over row tiles with a bounded
// fork-join. A ParallelFor call claims helper slots from one process-wide
// counter, starts exactly that many goroutines, and joins them before it
// returns; caller and helpers repeatedly claim the next unclaimed tile from
// a shared atomic counter, so whoever finishes early takes the remaining
// tiles of a slow peer's range. A call that finds no free slot runs inline.
// That is what a nested call (a tiled GEMM inside a parallel attention
// head) finds once the outer call has taken the slots, so nesting neither
// oversubscribes the cores nor blocks: a call only ever waits on goroutines
// it has itself started, each of which runs to completion without waiting
// on anyone.

// helpers counts the helper goroutines running process-wide. Claims keep it
// at or below Workers()-1, so the goroutines computing at any moment number
// at most the outermost callers plus Workers()-1.
var helpers atomic.Int32

// Workers returns the parallel width — the current GOMAXPROCS: the helper
// slots plus the calling goroutine. Kernels use it to size tile grains.
func Workers() int { return runtime.GOMAXPROCS(0) }

// forkJoin is the state one forked ParallelFor call shares with its helpers.
type forkJoin struct {
	next            atomic.Int64
	wg              sync.WaitGroup
	n, grain, tiles int
	fn              func(lo, hi int)
}

// drain claims and runs tiles until none remain.
func (f *forkJoin) drain() {
	for t := int(f.next.Add(1)) - 1; t < f.tiles; t = int(f.next.Add(1)) - 1 {
		lo := t * f.grain
		f.fn(lo, min(lo+f.grain, f.n))
	}
}

func (f *forkJoin) help() {
	f.drain()
	helpers.Add(-1)
	f.wg.Done()
}

// ParallelFor runs fn over the index range [0,n) split into tiles of size
// grain. fn is invoked with half-open tile bounds [lo,hi) and must be safe
// for concurrent invocation on disjoint ranges. The call returns only after
// every tile has completed. When the range fits a single tile, or no helper
// slot is free, fn runs inline on the caller with no synchronization at all.
func ParallelFor(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	grain = max(grain, 1)
	tiles := (n + grain - 1) / grain
	got := 0
	if w := Workers(); tiles > 1 && w > 1 {
		// Claim optimistically, then hand back whatever overshot the bound.
		got = min(tiles, w) - 1
		if over := int(helpers.Add(int32(got))) - (w - 1); over > 0 {
			over = min(over, got)
			helpers.Add(int32(-over))
			got -= over
		}
	}
	if got == 0 {
		fn(0, n)
		return
	}
	f := &forkJoin{n: n, grain: grain, tiles: tiles, fn: fn}
	help := f.help // one closure for every helper, not one per go statement
	f.wg.Add(got)
	for i := 0; i < got; i++ {
		go help()
	}
	f.drain()
	f.wg.Wait()
}
