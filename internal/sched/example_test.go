package sched_test

import (
	"fmt"

	"itask/internal/geom"
	"itask/internal/sched"
	"itask/internal/tensor"
)

// ExampleScheduler shows the situational configuration policy: the
// task-specific student serves its mission, everything else falls back to
// the quantized generalist.
func ExampleScheduler() {
	s := sched.New(1 << 20)
	noop := func(imgs []*tensor.Tensor) [][]geom.Scored { return make([][]geom.Scored, len(imgs)) }
	_ = s.Register(sched.Model{
		Name: "generalist-q8", Kind: sched.Generalist,
		Bytes: 70 << 10, LatencyUS: 400, Detect: noop,
	})
	_ = s.Register(sched.Model{
		Name: "patrol-student", Kind: sched.TaskSpecific, Task: "patrol",
		Bytes: 160 << 10, LatencyUS: 100, Detect: noop,
	})

	m, _ := s.Select(sched.Request{Task: "patrol"})
	fmt.Println("patrol ->", m.Name)
	m, _ = s.Select(sched.Request{Task: "harvest"})
	fmt.Println("harvest ->", m.Name)
	// Output:
	// patrol -> patrol-student
	// harvest -> generalist-q8
}
