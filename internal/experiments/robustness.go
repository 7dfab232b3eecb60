package experiments

import (
	"fmt"
	"io"

	"itask/internal/dataset"
	"itask/internal/eval"
	"itask/internal/quant"
	"itask/internal/scene"
	"itask/internal/tensor"
	"itask/internal/vit"
)

// vitObject converts a scene ground truth to the dataset representation.
func vitObject(gt scene.GroundTruth) vit.Object {
	return vit.Object{Box: gt.Box, Class: int(gt.Class)}
}

// E10Row is one point of the robustness study: accuracy under increased
// sensor noise for the float generalist and its int8/int4 deployments.
type E10Row struct {
	// NoiseScale multiplies each domain's nominal pixel-noise std.
	NoiseScale float64
	FloatAcc   float64
	Int8Acc    float64
	Int4Acc    float64
}

// E10NoiseRobustness evaluates the generalist across degraded imaging
// conditions — the "extreme environments" framing of edge sensing papers.
// All models are evaluated on identical noisy scenes (same seeds).
func E10NoiseRobustness(env *Env, scales []float64) ([]E10Row, error) {
	int8Model := env.Quant
	int4Model, err := quant.FromViT(env.Teacher, quant.Config{Bits: 4, PerChannel: true})
	if err != nil {
		return nil, err
	}
	var rows []E10Row
	for _, s := range scales {
		if s < 0 {
			return nil, fmt.Errorf("experiments: negative noise scale %v", s)
		}
		var fAcc, q8Acc, q4Acc float64
		for _, task := range env.Tasks {
			gen := env.Gen
			dom := scene.GetDomain(task.Domain)
			// Scale the domain's noise by regenerating scenes with a
			// modified domain descriptor.
			noisy := dom
			noisy.NoiseStd = dom.NoiseStd * float32(s)
			val := buildWithDomain(task, noisy, env.Scale.ValPerTask, gen)
			classes := dataset.ClassInts(task.Classes)
			fAcc += eval.Run(eval.DetectorOf(env.Teacher, env.Th), val, classes, env.Th).Accuracy
			q8Acc += eval.Run(env.quantDetector(int8Model), val, classes, env.Th).Accuracy
			q4Acc += eval.Run(env.quantDetector(int4Model), val, classes, env.Th).Accuracy
		}
		n := float64(len(env.Tasks))
		rows = append(rows, E10Row{
			NoiseScale: s,
			FloatAcc:   fAcc / n,
			Int8Acc:    q8Acc / n,
			Int4Acc:    q4Acc / n,
		})
	}
	return rows, nil
}

// buildWithDomain generates a labeled set from an explicit (possibly
// modified) domain descriptor with a deterministic seed per task.
func buildWithDomain(task dataset.Task, dom scene.Domain, n int, gen scene.GenConfig) dataset.Set {
	rng := tensor.NewRNG(uint64(777000 + int(task.Domain)))
	s := dataset.Set{Name: task.Name + "-noisy"}
	for i := 0; i < n; i++ {
		sc := scene.Generate(dom, gen, rng)
		ex := dataset.Example{Image: sc.Image}
		for _, gt := range sc.Objects {
			ex.Objects = append(ex.Objects, vitObject(gt))
		}
		s.Examples = append(s.Examples, ex)
	}
	return s
}

// FprintE10 renders the robustness series.
func FprintE10(w io.Writer, rows []E10Row) {
	fmt.Fprintf(w, "E10 — accuracy under sensor-noise degradation (generalist, mean over tasks)\n")
	fmt.Fprintf(w, "%-12s %10s %10s %10s\n", "noise scale", "float32", "int8", "int4")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12.1f %9.1f%% %9.1f%% %9.1f%%\n",
			r.NoiseScale, 100*r.FloatAcc, 100*r.Int8Acc, 100*r.Int4Acc)
	}
}
