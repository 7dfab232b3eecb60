package experiments

import (
	"fmt"
	"io"

	"itask/internal/dataset"
	"itask/internal/distill"
	"itask/internal/eval"
	"itask/internal/tensor"
	"itask/internal/vit"
	"itask/internal/zoo"
)

// E4Row is one point of Figure 1: few-shot adaptation to an unseen task.
type E4Row struct {
	Shots int
	// AccKG is accuracy with knowledge-graph prior conditioning.
	AccKG float64
	// AccNoKG is plain fine-tuning of the same base model (ablation).
	AccNoKG float64
}

// E4FewShot runs Figure 1 (claim C5): pretrain a generalist on three tasks,
// then adapt it to the held-out task from k samples per class, with and
// without the task's LLM-generated knowledge graph.
func E4FewShot(env *Env, heldOut string) ([]E4Row, error) {
	var target dataset.Task
	var pretrain []dataset.Task
	found := false
	for _, t := range env.Tasks {
		if t.Name == heldOut {
			target = t
			found = true
		} else {
			pretrain = append(pretrain, t)
		}
	}
	if !found {
		return nil, fmt.Errorf("experiments: unknown held-out task %q", heldOut)
	}

	rng := tensor.NewRNG(424242)
	base := vit.New(zoo.StudentCfg(), rng.Split())
	mixed := dataset.BuildMixed(pretrain, env.Scale.TrainPerTask/2+8, env.Gen, rng.Split())
	tcfg := distill.DefaultTrainConfig()
	tcfg.Epochs = env.Scale.TeacherEpochs
	tcfg.Seed = rng.Uint64()
	if _, err := distill.Train(base, mixed, tcfg); err != nil {
		return nil, err
	}

	priors := env.Priors[target.Name]
	val := env.Val[target.Name]
	classes := dataset.ClassInts(target.Classes)

	adapt := func(k int, strength float32) (float64, error) {
		m := vit.New(zoo.StudentCfg(), rng.Split())
		if err := base.CloneWeightsTo(m); err != nil {
			return 0, err
		}
		cfg := distill.DefaultFewShotConfig()
		cfg.Train.Epochs = env.Scale.FewShotEpochs
		cfg.PriorStrength = strength
		var support dataset.Set
		if k > 0 {
			support = dataset.BuildFewShot(target, k, env.Gen, tensor.NewRNG(uint64(1000+k)))
		}
		if _, err := distill.FewShotAdapt(m, priors, support, cfg); err != nil {
			return 0, err
		}
		return eval.Run(eval.DetectorOf(m, env.Th), val, classes, env.Th).Accuracy, nil
	}

	var rows []E4Row
	for _, k := range env.Scale.FewShotKs {
		withKG, err := adapt(k, 1)
		if err != nil {
			return nil, err
		}
		withoutKG, err := adapt(k, 0)
		if err != nil {
			return nil, err
		}
		rows = append(rows, E4Row{Shots: k, AccKG: withKG, AccNoKG: withoutKG})
	}
	return rows, nil
}

// FprintE4 renders Figure 1's series.
func FprintE4(w io.Writer, heldOut string, rows []E4Row) {
	fmt.Fprintf(w, "E4 (Fig. 1) — few-shot adaptation to held-out task %q\n", heldOut)
	fmt.Fprintf(w, "%-8s %12s %12s %10s\n", "shots/k", "with KG", "without KG", "delta")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %11.1f%% %11.1f%% %+9.1f%%\n",
			r.Shots, 100*r.AccKG, 100*r.AccNoKG, 100*(r.AccKG-r.AccNoKG))
	}
}
