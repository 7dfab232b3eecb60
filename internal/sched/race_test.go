package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"itask/internal/tensor"
)

// TestConcurrentSchedulerNoLostUpdates hammers one scheduler from many
// goroutines doing Register, Route, Select, DetectBatchOn, Stats, and Resident
// concurrently, then checks the accounting invariant that every successful
// selection recorded exactly one cache hit or miss. Run with -race; before
// the scheduler grew its mutex this was both a data race and a lost-update
// generator (CacheStats increments, LRU list splices).
func TestConcurrentSchedulerNoLostUpdates(t *testing.T) {
	const (
		goroutines = 8
		iters      = 300
		tasks      = 6
	)
	dummy := dummyDetect(0)

	s := New(3000) // room for ~3 of the 1000-byte models: forces eviction traffic
	if err := s.Register(Model{Name: "gen", Kind: Generalist, Bytes: 1000, Detect: dummy}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tasks; i++ {
		err := s.Register(Model{
			Name: fmt.Sprintf("student-%d", i), Kind: TaskSpecific,
			Task: fmt.Sprintf("task-%d", i), Bytes: 1000, Detect: dummy,
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var selected atomic.Int64
	img := tensor.New(1)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				task := fmt.Sprintf("task-%d", (g+i)%tasks)
				switch i % 5 {
				case 0:
					// Concurrent registration of unique late-arriving models.
					name := fmt.Sprintf("late-%d-%d", g, i)
					err := s.Register(Model{
						Name: name, Kind: TaskSpecific, Task: name, Bytes: 500, Detect: dummy,
					})
					if err != nil {
						t.Errorf("register %s: %v", name, err)
					}
				case 1:
					if _, err := s.Route(Request{Task: task}); err != nil {
						t.Errorf("route %s: %v", task, err)
					}
				case 2:
					variant, err := s.Route(Request{Task: task})
					if err != nil {
						t.Errorf("route %s: %v", task, err)
					} else if _, _, err := s.DetectBatchOn(variant, []*tensor.Tensor{img}); err != nil {
						t.Errorf("detect %s: %v", task, err)
					} else {
						selected.Add(1)
					}
				default:
					if _, err := s.Select(Request{Task: task}); err != nil {
						t.Errorf("select %s: %v", task, err)
					} else {
						selected.Add(1)
					}
				}
				// Concurrent readers of the shared state.
				_ = s.Stats()
				_ = s.Resident()
				_ = s.Snapshot()
			}
		}(g)
	}
	wg.Wait()

	st := s.Stats()
	if got, want := int64(st.Hits+st.Misses), selected.Load(); got != want {
		t.Errorf("lost updates: hits+misses = %d, successful selections = %d", got, want)
	}
	if st.BytesLoaded < 1000 {
		t.Errorf("implausible BytesLoaded %d", st.BytesLoaded)
	}
	snap := s.Snapshot()
	if snap.Cache != st {
		// Stats drifted after quiescence: both reads should agree now.
		t.Errorf("Snapshot cache %+v != Stats %+v", snap.Cache, st)
	}
}
