package experiments

import (
	"fmt"
	"io"

	"itask/internal/dataset"
	"itask/internal/eval"
)

// E1Row is one row of Table 1: per-task accuracy of the configurations
// (claim C1: task-specific beats quantized in-task).
type E1Row struct {
	Task string
	// TeacherAcc is the float multi-task teacher (upper reference).
	TeacherAcc float64
	// StudentAcc is the distilled task-specific configuration.
	StudentAcc float64
	// QuantAcc is the served quantized configuration: the int8 teacher.
	QuantAcc float64
	// BaseAcc is the int8 student-sized base, the quantized configuration
	// matched in capacity to the students.
	BaseAcc float64
	// StudentMAP and QuantMAP are the corresponding mAPs.
	StudentMAP, QuantMAP float64
	// GapPct is 100·(StudentAcc − QuantAcc): the paper reports ~15%.
	// BaseGapPct is the same against the int8 base.
	GapPct, BaseGapPct float64
}

// E1ConfigAccuracy runs Table 1.
func E1ConfigAccuracy(env *Env) []E1Row {
	var rows []E1Row
	qdet, bdet := env.quantDetector(env.Quant), env.quantDetector(env.QuantBase)
	for _, task := range env.Tasks {
		classes := dataset.ClassInts(task.Classes)
		val := env.Val[task.Name]
		teacher := eval.Run(eval.DetectorOf(env.Teacher, env.Th), val, classes, env.Th)
		student := eval.Run(eval.DetectorOf(env.Students[task.Name], env.Th), val, classes, env.Th)
		quantS := eval.Run(qdet, val, classes, env.Th)
		base := eval.Run(bdet, val, classes, env.Th)
		rows = append(rows, E1Row{
			Task:       task.Name,
			TeacherAcc: teacher.Accuracy,
			StudentAcc: student.Accuracy,
			QuantAcc:   quantS.Accuracy,
			BaseAcc:    base.Accuracy,
			StudentMAP: student.MAP,
			QuantMAP:   quantS.MAP,
			GapPct:     100 * (student.Accuracy - quantS.Accuracy),
			BaseGapPct: 100 * (student.Accuracy - base.Accuracy),
		})
	}
	return rows
}

// FprintE1 renders Table 1.
func FprintE1(w io.Writer, rows []E1Row) {
	fmt.Fprintf(w, "E1 (Table 1) — configuration accuracy per task\n")
	fmt.Fprintf(w, "%-10s %10s %14s %12s %12s %10s %8s %10s %9s\n",
		"task", "teacher", "task-specific", "quantized", "ts-mAP", "q-mAP", "gap", "int8-base", "base-gap")
	var meanGap, meanBaseGap float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %9.1f%% %13.1f%% %11.1f%% %12.3f %10.3f %+7.1f%% %9.1f%% %+8.1f%%\n",
			r.Task, 100*r.TeacherAcc, 100*r.StudentAcc, 100*r.QuantAcc, r.StudentMAP, r.QuantMAP, r.GapPct,
			100*r.BaseAcc, r.BaseGapPct)
		meanGap += r.GapPct
		meanBaseGap += r.BaseGapPct
	}
	if n := float64(len(rows)); n > 0 {
		fmt.Fprintf(w, "mean task-specific advantage over the served int8 generalist: %+.1f%% (paper claim C1: +15%%); over the int8 base: %+.1f%%\n",
			meanGap/n, meanBaseGap/n)
	}
}

// E2Row is one row of Table 2: a configuration evaluated across every task
// (claim C2: the quantized generalist is robust off-task, students are not).
type E2Row struct {
	Config string
	// AccOn holds accuracy per evaluation task, keyed by task name order
	// of Env.Tasks.
	AccOn []float64
	// MeanAcc is the across-task mean.
	MeanAcc float64
	// WorstAcc is the minimum across tasks.
	WorstAcc float64
}

// E2MultiTask runs Table 2: each per-task student plus the quantized
// generalist, evaluated on all four tasks.
func E2MultiTask(env *Env) []E2Row {
	var rows []E2Row
	evalConfig := func(name string, df eval.DetectFunc) E2Row {
		row := E2Row{Config: name, WorstAcc: 1}
		for _, task := range env.Tasks {
			s := eval.Run(df, env.Val[task.Name], dataset.ClassInts(task.Classes), env.Th)
			row.AccOn = append(row.AccOn, s.Accuracy)
			row.MeanAcc += s.Accuracy
			if s.Accuracy < row.WorstAcc {
				row.WorstAcc = s.Accuracy
			}
		}
		row.MeanAcc /= float64(len(env.Tasks))
		return row
	}
	for _, task := range env.Tasks {
		rows = append(rows, evalConfig("student:"+task.Name, eval.DetectorOf(env.Students[task.Name], env.Th)))
	}
	rows = append(rows, evalConfig("quantized-generalist", env.quantDetector(env.Quant)))
	return rows
}

// FprintE2 renders Table 2.
func FprintE2(w io.Writer, env *Env, rows []E2Row) {
	fmt.Fprintf(w, "E2 (Table 2) — cross-task robustness (accuracy %%)\n")
	fmt.Fprintf(w, "%-22s", "config \\ eval task")
	for _, t := range env.Tasks {
		fmt.Fprintf(w, " %9s", t.Name)
	}
	fmt.Fprintf(w, " %9s %9s\n", "mean", "worst")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s", r.Config)
		for _, a := range r.AccOn {
			fmt.Fprintf(w, " %8.1f%%", 100*a)
		}
		fmt.Fprintf(w, " %8.1f%% %8.1f%%\n", 100*r.MeanAcc, 100*r.WorstAcc)
	}
}
