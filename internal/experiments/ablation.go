package experiments

import (
	"fmt"
	"io"

	"itask/internal/dataset"
	"itask/internal/distill"
	"itask/internal/eval"
	"itask/internal/kg"
	"itask/internal/quant"
	"itask/internal/scene"
	"itask/internal/tensor"
	"itask/internal/vit"
	"itask/internal/zoo"
)

// E7Row is one point of Figure 4: quantization sensitivity.
type E7Row struct {
	Bits       int
	PerChannel bool
	// MeanAcc is the across-task mean accuracy of the quantized generalist.
	MeanAcc float64
	// DeltaVsFloat is MeanAcc minus the float teacher's mean accuracy.
	DeltaVsFloat float64
	// WeightKB is the quantized weight footprint.
	WeightKB float64
}

// E7BitWidth runs Figure 4: the trained generalist quantized at 8/6/4 bits,
// per-channel and per-tensor, evaluated across all tasks.
func E7BitWidth(env *Env) ([]E7Row, error) {
	// Float reference: the generalist before quantization.
	floatMean := env.meanAcc(eval.DetectorOf(env.Teacher, env.Th))

	var rows []E7Row
	for _, perChannel := range []bool{true, false} {
		for _, bits := range []int{8, 6, 4} {
			qm, err := quant.FromViT(env.Teacher, quant.Config{Bits: bits, PerChannel: perChannel})
			if err != nil {
				return nil, err
			}
			mean := env.meanAcc(env.quantDetector(qm))
			rows = append(rows, E7Row{
				Bits:         bits,
				PerChannel:   perChannel,
				MeanAcc:      mean,
				DeltaVsFloat: mean - floatMean,
				WeightKB:     float64(qm.WeightBytes()) / 1024,
			})
		}
	}
	return rows, nil
}

// FprintE7 renders Figure 4's series.
func FprintE7(w io.Writer, rows []E7Row) {
	fmt.Fprintf(w, "E7 (Fig. 4) — quantization sensitivity of the generalist\n")
	fmt.Fprintf(w, "%-6s %-12s %12s %14s %12s\n", "bits", "scheme", "mean acc", "vs float", "weights(KB)")
	for _, r := range rows {
		scheme := "per-tensor"
		if r.PerChannel {
			scheme = "per-channel"
		}
		fmt.Fprintf(w, "%-6d %-12s %11.1f%% %+13.1f%% %12.1f\n",
			r.Bits, scheme, 100*r.MeanAcc, 100*r.DeltaVsFloat, r.WeightKB)
	}
}

// E8KGRow is one row of the knowledge-graph ablation: an attribute family
// removed from the task graph before computing priors.
type E8KGRow struct {
	Removed string
	// Separation is mean prior over true task classes minus mean prior over
	// all other classes — how well the KG isolates the task's classes.
	Separation float64
	// ZeroShotAcc is the prior-conditioned generalist's accuracy with no
	// support samples (strength-1 bias conditioning only).
	ZeroShotAcc float64
}

// E8KGAblation removes one attribute family at a time from the patrol
// task's graph and measures prior quality and zero-shot conditioning.
func E8KGAblation(env *Env, taskName string) ([]E8KGRow, error) {
	var task dataset.Task
	found := false
	for _, t := range env.Tasks {
		if t.Name == taskName {
			task = t
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("experiments: unknown task %q", taskName)
	}
	full := env.Graphs[taskName]
	val := env.Val[taskName]
	classes := dataset.ClassInts(task.Classes)
	taskID := "task:" + taskName

	families := []struct {
		name string
		rel  kg.Relation
	}{
		{"none", ""},
		{"shape", kg.HasShape},
		{"color", kg.HasColor},
		{"texture", kg.HasTexture},
		{"size", kg.HasSize},
	}
	var rows []E8KGRow
	for _, fam := range families {
		g := ablateFamily(full, fam.rel)
		priors := kg.ClassPriors(g, taskID)
		rows = append(rows, E8KGRow{
			Removed:     fam.name,
			Separation:  priorSeparation(priors, task.Classes),
			ZeroShotAcc: zeroShotAcc(env, priors, val, classes),
		})
	}
	return rows, nil
}

// ablateFamily deep-copies g without edges of the given relation
// (rel == "" keeps everything).
func ablateFamily(g *kg.Graph, rel kg.Relation) *kg.Graph {
	out := kg.New()
	for _, n := range g.Nodes() {
		out.AddNode(n.ID, n.Kind, n.Label)
	}
	for _, e := range g.Edges() {
		if rel != "" && e.Rel == rel {
			continue
		}
		out.AddEdge(e.From, e.To, e.Rel, e.Weight)
	}
	return out
}

func priorSeparation(priors []float64, taskClasses []scene.ClassID) float64 {
	in := map[int]bool{}
	for _, c := range taskClasses {
		in[int(c)] = true
	}
	var inMean, outMean float64
	var nIn, nOut int
	for c, p := range priors {
		if in[c] {
			inMean += p
			nIn++
		} else {
			outMean += p
			nOut++
		}
	}
	if nIn > 0 {
		inMean /= float64(nIn)
	}
	if nOut > 0 {
		outMean /= float64(nOut)
	}
	return inMean - outMean
}

// zeroShotAcc conditions a fresh copy of the teacher on priors and measures
// accuracy without any fine-tuning.
func zeroShotAcc(env *Env, priors []float64, val dataset.Set, classes []int) float64 {
	m := vit.New(zoo.TeacherCfg(), tensor.NewRNG(7))
	if err := env.Teacher.CloneWeightsTo(m); err != nil {
		panic(err)
	}
	if err := distill.ApplyClassPriors(m, priors, 1); err != nil {
		panic(err)
	}
	return eval.Run(eval.DetectorOf(m, env.Th), val, classes, env.Th).Accuracy
}

// FprintE8KG renders the KG ablation.
func FprintE8KG(w io.Writer, taskName string, rows []E8KGRow) {
	fmt.Fprintf(w, "E8a — knowledge-graph attribute ablation (task %q)\n", taskName)
	fmt.Fprintf(w, "%-10s %12s %14s\n", "removed", "separation", "zero-shot acc")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12.3f %13.1f%%\n", r.Removed, r.Separation, 100*r.ZeroShotAcc)
	}
}

// E8DistillRow is one row of the distillation-loss ablation.
type E8DistillRow struct {
	Variant string
	Acc     float64
}

// E8DistillAblation distills a student for one task under loss variants:
// hard labels only, +soft responses, +feature matching (the full recipe).
func E8DistillAblation(env *Env, taskName string) ([]E8DistillRow, error) {
	var task dataset.Task
	found := false
	for _, t := range env.Tasks {
		if t.Name == taskName {
			task = t
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("experiments: unknown task %q", taskName)
	}
	rng := tensor.NewRNG(515151)
	set := dataset.Build(task, env.Scale.DistillSample, env.Gen, rng.Split())
	val := env.Val[taskName]
	classes := dataset.ClassInts(task.Classes)

	variants := []struct {
		name         string
		alpha        float32
		softW, featW float32
	}{
		{"hard-only", 0, 0, 0},
		{"soft-only", 1, 1, 0},
		{"hard+soft", 0.5, 1, 0},
		{"hard+soft+feature", 0.5, 1, 0.5},
	}
	var rows []E8DistillRow
	for i, v := range variants {
		student := vit.New(zoo.StudentCfg(), tensor.NewRNG(uint64(900+i)))
		cfg := distill.DefaultDistillConfig()
		cfg.Train.Epochs = env.Scale.DistillEpochs
		cfg.Train.Seed = uint64(7000 + i)
		cfg.Alpha = v.alpha
		cfg.SoftWeight = v.softW
		cfg.FeatureWeight = v.featW
		if _, err := distill.Distill(env.Teacher, student, set, cfg); err != nil {
			return nil, err
		}
		acc := eval.Run(eval.DetectorOf(student, env.Th), val, classes, env.Th).Accuracy
		rows = append(rows, E8DistillRow{Variant: v.name, Acc: acc})
	}
	return rows, nil
}

// FprintE8Distill renders the distillation ablation.
func FprintE8Distill(w io.Writer, taskName string, rows []E8DistillRow) {
	fmt.Fprintf(w, "E8b — distillation loss ablation (task %q)\n", taskName)
	fmt.Fprintf(w, "%-20s %10s\n", "variant", "acc")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %9.1f%%\n", r.Variant, 100*r.Acc)
	}
}
