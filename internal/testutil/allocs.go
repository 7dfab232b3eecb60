// Package testutil holds what the tests of more than one package measure the
// same way.
package testutil

import "runtime"

// AllocsPerRunAt is testing.AllocsPerRun at a chosen parallel width: the
// heap objects fn allocates per call, averaged over runs calls and
// truncated as the standard library's figure is, with GOMAXPROCS set to
// procs for the measurement. testing.AllocsPerRun pins GOMAXPROCS to 1, a
// width no multi-core deployment serves at; per-P pools behave differently
// above it. fn runs a few times first so this
// width's pools are warm. The count is process-wide (runtime.MemStats), so
// nothing else may be allocating meanwhile.
func AllocsPerRunAt(procs, runs int, fn func()) float64 {
	objects, _ := MemPerRunAt(procs, runs, fn)
	return objects
}

// MemPerRunAt is AllocsPerRunAt with the bytes as well: the heap objects
// and bytes fn allocates per call, each averaged and truncated the same way.
func MemPerRunAt(procs, runs int, fn func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	for i := 0; i < 5; i++ {
		fn()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs)),
		float64((after.TotalAlloc - before.TotalAlloc) / uint64(runs))
}
