package experiments

import (
	"fmt"
	"io"

	"itask/internal/geom"
	"itask/internal/hwsim"
	"itask/internal/sched"
	"itask/internal/tensor"
)

// E12Row is one arrival-rate point of the real-time streaming study.
type E12Row struct {
	ArrivalFPS float64
	// StudentsP95US / StudentsMissPct: per-task students under a roomy
	// memory budget (the intended deployment).
	StudentsP95US   float64
	StudentsMissPct float64
	// GeneralistP95US / GeneralistMissPct: quantized generalist only.
	GeneralistP95US   float64
	GeneralistMissPct float64
	// TightP95US / TightMissPct: students under a tight budget that forces
	// cache thrash on mission switches.
	TightP95US   float64
	TightMissPct float64
}

// E12Streaming sweeps the frame arrival rate over a mixed-mission stream
// and reports tail latency and deadline misses for three deployments. All
// service times come from the accelerator model (paper-scale geometries),
// so this is the end-to-end "real-time processing" evaluation the paper's
// hardware section motivates.
func E12Streaming(deadlineUS float64, rates []float64) ([]E12Row, error) {
	accel := hwsim.DefaultAccel()
	studentLat := hwsim.SimulateAccel(accel, HWStudentCfg()).LatencyUS
	generalLat := hwsim.SimulateAccel(accel, HWTeacherCfg()).LatencyUS
	tasks := []string{"patrol", "triage", "inspect", "harvest"}
	mix := map[string]float64{}
	for _, task := range tasks {
		mix[task] = 1
	}
	noop := func(imgs []*tensor.Tensor) [][]geom.Scored { return make([][]geom.Scored, len(imgs)) }

	const studentBytes = 200 << 10
	const generalBytes = 400 << 10

	build := func(withStudents bool, budget int64) (*sched.Scheduler, error) {
		s := sched.New(budget)
		if err := s.Register(sched.Model{
			Name: "generalist", Kind: sched.Generalist,
			Bytes: generalBytes, LatencyUS: generalLat, Detect: noop,
		}); err != nil {
			return nil, err
		}
		if withStudents {
			for _, task := range tasks {
				if err := s.Register(sched.Model{
					Name: task + "-student", Kind: sched.TaskSpecific, Task: task,
					Bytes: studentBytes, LatencyUS: studentLat, Detect: noop,
				}); err != nil {
					return nil, err
				}
			}
		}
		return s, nil
	}

	var rows []E12Row
	for _, fps := range rates {
		cfg := sched.StreamConfig{
			ArrivalFPS: fps, Frames: 4000, DeadlineUS: deadlineUS, Mix: mix, Seed: 42,
		}
		run := func(withStudents bool, budget int64) (float64, float64, error) {
			s, err := build(withStudents, budget)
			if err != nil {
				return 0, 0, err
			}
			st, err := s.SimulateStream(cfg)
			if err != nil {
				return 0, 0, err
			}
			return st.P95US, 100 * float64(st.DeadlineMisses) / float64(st.Frames), nil
		}
		row := E12Row{ArrivalFPS: fps}
		var err error
		// Roomy budget: generalist + all students resident.
		if row.StudentsP95US, row.StudentsMissPct, err = run(true, 2<<20); err != nil {
			return nil, err
		}
		if row.GeneralistP95US, row.GeneralistMissPct, err = run(false, 2<<20); err != nil {
			return nil, err
		}
		// Tight budget: generalist + one student; switches thrash.
		if row.TightP95US, row.TightMissPct, err = run(true, generalBytes+studentBytes+(50<<10)); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FprintE12 renders the streaming study.
func FprintE12(w io.Writer, deadlineUS float64, rows []E12Row) {
	fmt.Fprintf(w, "E12 — real-time streaming, mixed missions (deadline %.0f us, P95 sojourn / miss rate)\n", deadlineUS)
	fmt.Fprintf(w, "%-8s %22s %22s %24s\n", "fps", "students(roomy)", "generalist-only", "students(tight memory)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8.0f %14.0fus %5.1f%% %14.0fus %5.1f%% %16.0fus %5.1f%%\n",
			r.ArrivalFPS,
			r.StudentsP95US, r.StudentsMissPct,
			r.GeneralistP95US, r.GeneralistMissPct,
			r.TightP95US, r.TightMissPct)
	}
}
