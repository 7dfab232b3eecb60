package sched

import (
	"strings"
	"testing"

	"itask/internal/geom"
	"itask/internal/registry"
	"itask/internal/tensor"
)

func dummyDetect(tag int) registry.BatchDetectFunc {
	return func(imgs []*tensor.Tensor) [][]geom.Scored {
		out := make([][]geom.Scored, len(imgs))
		for i := range out {
			out[i] = []geom.Scored{{Class: tag, Score: 1}}
		}
		return out
	}
}

func makeScheduler(t *testing.T, budget int64) *Scheduler {
	t.Helper()
	s := New(budget)
	models := []Model{
		{Name: "gen-q8", Kind: Generalist, Bytes: 400, LatencyUS: 400, Detect: dummyDetect(0)},
		{Name: "patrol-ts", Kind: TaskSpecific, Task: "patrol", Bytes: 300, LatencyUS: 150, Detect: dummyDetect(1)},
		{Name: "triage-ts", Kind: TaskSpecific, Task: "triage", Bytes: 300, LatencyUS: 150, Detect: dummyDetect(2)},
	}
	for _, m := range models {
		if err := s.Register(m); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestRegisterValidation(t *testing.T) {
	s := New(1000)
	cases := []Model{
		{},
		{Name: "x"},
		{Name: "x", Detect: dummyDetect(0)},
		{Name: "ts", Kind: TaskSpecific, Bytes: 1, Detect: dummyDetect(0)}, // no task
	}
	for i, m := range cases {
		if err := s.Register(m); err == nil {
			t.Errorf("case %d should fail: %+v", i, m)
		}
	}
	good := Model{Name: "g", Kind: Generalist, Bytes: 1, Detect: dummyDetect(0)}
	if err := s.Register(good); err != nil {
		t.Fatal(err)
	}
	// Re-registering a name is no longer an error: it publishes the next
	// version and routes it.
	if err := s.Register(good); err != nil {
		t.Errorf("republish of %q: %v", good.Name, err)
	}
	if m, err := s.SelectByName("g"); err != nil || m.ID.Version != 2 {
		t.Errorf("after republish: model %+v, err %v, want v2", m, err)
	}
	second := Model{Name: "g2", Kind: Generalist, Bytes: 1, Detect: dummyDetect(0)}
	if err := s.Register(second); err == nil {
		t.Error("second generalist should fail")
	}
	ts := Model{Name: "t1", Kind: TaskSpecific, Task: "a", Bytes: 1, Detect: dummyDetect(0)}
	if err := s.Register(ts); err != nil {
		t.Fatal(err)
	}
	ts2 := Model{Name: "t2", Kind: TaskSpecific, Task: "a", Bytes: 1, Detect: dummyDetect(0)}
	if err := s.Register(ts2); err == nil {
		t.Error("duplicate task should fail")
	}
}

func TestSelectPrefersTaskSpecific(t *testing.T) {
	s := makeScheduler(t, 1000)
	m, err := s.Select(Request{Task: "patrol"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "patrol-ts" {
		t.Errorf("selected %q, want patrol-ts", m.Name)
	}
}

func TestSelectFallsBackToGeneralist(t *testing.T) {
	s := makeScheduler(t, 1000)
	m, err := s.Select(Request{Task: "harvest"}) // no task-specific model
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "gen-q8" {
		t.Errorf("selected %q, want generalist", m.Name)
	}
}

func TestSelectHonorsLatencyBudget(t *testing.T) {
	s := makeScheduler(t, 1000)
	// Generalist (400us) over budget; patrol student (150us) within.
	m, err := s.Select(Request{Task: "patrol", LatencyBudgetUS: 200})
	if err != nil || m.Name != "patrol-ts" {
		t.Fatalf("m=%v err=%v", m, err)
	}
	// For a task without a student, generalist over budget -> error.
	if _, err := s.Select(Request{Task: "harvest", LatencyBudgetUS: 200}); err == nil {
		t.Error("over-budget request should fail")
	}
}

func TestCacheEvictionUnderBudget(t *testing.T) {
	s := makeScheduler(t, 650) // fits generalist(400)+one student(300)? no: 700 > 650
	if _, err := s.Select(Request{Task: "patrol"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Select(Request{Task: "triage"}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Misses != 2 {
		t.Errorf("misses = %d, want 2", st.Misses)
	}
	// 300+300 = 600 <= 650: both students resident, no eviction yet.
	if st.Evictions != 0 {
		t.Errorf("evictions = %d, want 0", st.Evictions)
	}
	// Loading the generalist (400) forces evictions.
	if _, err := s.Select(Request{Task: "unknown"}); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Evictions == 0 {
		t.Error("expected evictions when budget exceeded")
	}
	// LRU: patrol-ts (oldest) must be evicted first. Resident returns full
	// artifact ID strings (name@vN#sum).
	for _, id := range s.Resident() {
		if strings.HasPrefix(id, "patrol-ts@") {
			t.Errorf("LRU victim %s still resident", id)
		}
	}
}

func TestCacheHitsOnRepeatedTask(t *testing.T) {
	s := makeScheduler(t, 1000)
	for i := 0; i < 5; i++ {
		if _, err := s.Select(Request{Task: "patrol"}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != 4 {
		t.Errorf("hits/misses = %d/%d, want 4/1", st.Hits, st.Misses)
	}
	if s.Switches != 0 {
		t.Errorf("switches = %d, want 0", s.Switches)
	}
}

func TestSwitchCounting(t *testing.T) {
	s := makeScheduler(t, 1000)
	tasks := []string{"patrol", "triage", "patrol", "patrol", "triage"}
	for _, task := range tasks {
		if _, err := s.Select(Request{Task: task}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Switches != 3 {
		t.Errorf("switches = %d, want 3", s.Switches)
	}
}

func TestModelTooBigForBudget(t *testing.T) {
	s := New(100)
	if err := s.Register(Model{Name: "big", Kind: Generalist, Bytes: 500, LatencyUS: 1, Detect: dummyDetect(0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Select(Request{Task: "x"}); err == nil {
		t.Error("model larger than budget should fail selection")
	}
}

func TestDetectRuns(t *testing.T) {
	s := makeScheduler(t, 1000)
	variant, err := s.Route(Request{Task: "triage"})
	if err != nil {
		t.Fatal(err)
	}
	dets, m, err := s.DetectBatchOn(variant, []*tensor.Tensor{tensor.New(3, 4, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "triage-ts" || len(dets) != 1 || len(dets[0]) != 1 || dets[0][0].Class != 2 {
		t.Errorf("detect routed wrong: model=%q dets=%v", m.Name, dets)
	}
}

func TestLoadTimeAccounting(t *testing.T) {
	s := makeScheduler(t, 1000)
	s.LoadBandwidthMBs = 1 // 1 MB/s -> 300 bytes = 300 us
	if _, err := s.Select(Request{Task: "patrol"}); err != nil {
		t.Fatal(err)
	}
	if s.LoadTimeUS < 299 || s.LoadTimeUS > 301 {
		t.Errorf("load time %v us, want ~300", s.LoadTimeUS)
	}
	before := s.LoadTimeUS
	// Hit: no extra load time.
	if _, err := s.Select(Request{Task: "patrol"}); err != nil {
		t.Fatal(err)
	}
	if s.LoadTimeUS != before {
		t.Error("cache hit should not add load time")
	}
}

func TestNoModelsAtAll(t *testing.T) {
	s := New(100)
	if _, err := s.Select(Request{Task: "x"}); err == nil {
		t.Error("empty registry should fail")
	}
}

func TestTouchPanicsOnNonResident(t *testing.T) {
	c := newLRUCache(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.touch("ghost")
}
