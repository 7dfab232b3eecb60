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

// minTileWork is the fork rule, the one place that decides whether a kernel
// runs on more than the calling goroutine: a tile must carry at least this
// many multiply-adds, so a range is cut only when it holds two such tiles.
// A fork costs a goroutine start, a wake-up on another core and a join — a
// few microseconds that do not shrink with the work — and a core a forward
// pass borrows is a core the serve tier's other worker wanted. The value is
// read off BenchmarkForkSweep (table in DESIGN.md §8): below 2^18
// multiply-adds per tile — every GEMM of both serving models up to a batch
// of 8 — a forked call loses to the inline one at every width; from 2^19 it
// usually wins, by anything from nothing to 30 %; from about 1.5·2^20 it
// wins 20–45 % in every run at widths 2 and 4. With tiles of one to two
// times 2^20, what forks is what reliably gains.
const minTileWork = 1 << 20

// ParallelFor runs fn over the index range [0,n), where each index carries
// `work` multiply-adds (a GEMM row: k·n; an attention head: its two
// products). fn is invoked with half-open tile bounds [lo,hi) and must be
// safe for concurrent invocation on disjoint ranges. The call returns only
// after every tile has completed. The range is cut into as many tiles as
// carry minTileWork each — at most two per worker, so whoever finishes early
// has a tile to take — and when that is fewer than two, or no helper slot is
// free, fn runs inline on the caller with no synchronization at all.
func ParallelFor(n, work int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	runTiles(n, tilesFor(n, work), fn)
}

// tilesFor is the fork rule applied: how many tiles of at least minTileWork
// multiply-adds the range [0,n) holds, at most two per worker.
func tilesFor(n, work int) int {
	work = max(work, 1)
	return min(2*Workers(), n/((minTileWork+work-1)/work))
}

// Forks reports whether ParallelFor(n, work, …) would cut its range. A func
// literal handed to ParallelFor is a heap object whether or not anything
// forks, so a kernel that runs many times per forward (the int8 GEMM: once
// per layer and twice per attention head) asks first and calls its tile
// body directly when the answer is no.
func Forks(n, work int) bool {
	return Workers() > 1 && tilesFor(n, work) > 1
}

// runTiles runs fn over [0,n) cut into at most `tiles` equal tiles, on the
// caller plus as many helper goroutines as there are free slots (none when
// tiles < 2 or the width is 1).
func runTiles(n, tiles int, fn func(lo, hi int)) {
	got := 0
	grain := n
	if w := Workers(); tiles > 1 && w > 1 {
		grain = (n + tiles - 1) / tiles
		tiles = (n + grain - 1) / grain
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
