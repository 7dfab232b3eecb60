package experiments

import (
	"fmt"
	"io"

	"itask/internal/baseline"
	"itask/internal/dataset"
	"itask/internal/distill"
	"itask/internal/eval"
	"itask/internal/geom"
	"itask/internal/scene"
	"itask/internal/tensor"
	"itask/internal/vit"
	"itask/internal/zoo"
)

// E9Row is one point of the sample-efficiency study: accuracy on the target
// task as a function of how many target-task scenes each approach sees.
type E9Row struct {
	Samples int
	// ITaskAcc is the full pipeline: leave-one-out multi-task teacher →
	// distilled student on the n samples → KG prior conditioning.
	ITaskAcc float64
	// CNNAcc is the conventional baseline trained from scratch on the same
	// n samples.
	CNNAcc float64
	// ViTScratchAcc is the student architecture trained from scratch —
	// separates the pipeline's contribution from the architecture's.
	ViTScratchAcc float64
}

// E9SampleEfficiency quantifies the abstract's motivation: "conventional
// models often struggle ... requiring vast datasets", while iTask
// "generalize[s] efficiently from limited samples". The teacher is trained
// WITHOUT the target task, so every approach sees exactly n target scenes.
func E9SampleEfficiency(env *Env, targetName string, sampleCounts []int) ([]E9Row, error) {
	var target dataset.Task
	var pretrain []dataset.Task
	found := false
	for _, t := range env.Tasks {
		if t.Name == targetName {
			target = t
			found = true
		} else {
			pretrain = append(pretrain, t)
		}
	}
	if !found {
		return nil, fmt.Errorf("experiments: unknown target task %q", targetName)
	}

	rng := tensor.NewRNG(606060)
	// Leave-one-out teacher: the reusable, task-agnostic part of iTask.
	looTeacher := vit.New(zoo.TeacherCfg(), rng.Split())
	mixed := dataset.BuildMixed(pretrain, env.Scale.TrainPerTask, env.Gen, rng.Split())
	tcfg := distill.DefaultTrainConfig()
	tcfg.Epochs = env.Scale.TeacherEpochs
	tcfg.Seed = rng.Uint64()
	if _, err := distill.Train(looTeacher, mixed, tcfg); err != nil {
		return nil, err
	}

	priors := env.Priors[targetName]
	val := env.Val[targetName]
	classes := dataset.ClassInts(target.Classes)
	th := env.Th

	var rows []E9Row
	for _, n := range sampleCounts {
		if n <= 0 {
			return nil, fmt.Errorf("experiments: sample count %d", n)
		}
		support := dataset.Build(target, n, env.Gen, tensor.NewRNG(uint64(3000+n)))

		// iTask: distill from the LOO teacher on the n samples, condition
		// with the task's knowledge graph.
		student := vit.New(zoo.StudentCfg(), tensor.NewRNG(uint64(4000+n)))
		dcfg := distill.DefaultDistillConfig()
		dcfg.Train.Epochs = env.Scale.DistillEpochs
		dcfg.Train.Seed = uint64(5000 + n)
		if _, err := distill.Distill(looTeacher, student, support, dcfg); err != nil {
			return nil, err
		}
		if err := distill.ApplyClassPriors(student, priors, 1); err != nil {
			return nil, err
		}
		itaskAcc := eval.Run(eval.DetectorOf(student, th), val, classes, th).Accuracy

		// Conventional CNN from scratch.
		cnn := baseline.NewCNN(baseline.DefaultCNNConfig(int(scene.NumClasses)), tensor.NewRNG(uint64(6000+n)))
		ccfg := baseline.DefaultTrainConfig()
		ccfg.Epochs = env.Scale.DistillEpochs
		ccfg.Seed = uint64(7000 + n)
		if _, err := cnn.Train(support, ccfg); err != nil {
			return nil, err
		}
		cnnDF := eval.DetectFunc(func(img *tensor.Tensor) []geom.Scored {
			return cnn.Detect(img, th.Obj, th.NMSIoU)
		})
		cnnAcc := eval.Run(cnnDF, val, classes, th).Accuracy

		// ViT (student architecture) from scratch — architecture control.
		scratch := vit.New(zoo.StudentCfg(), tensor.NewRNG(uint64(8000+n)))
		scfg := distill.DefaultTrainConfig()
		scfg.Epochs = env.Scale.DistillEpochs
		scfg.Seed = uint64(9000 + n)
		if _, err := distill.Train(scratch, support, scfg); err != nil {
			return nil, err
		}
		scratchAcc := eval.Run(eval.DetectorOf(scratch, th), val, classes, th).Accuracy

		rows = append(rows, E9Row{
			Samples: n, ITaskAcc: itaskAcc, CNNAcc: cnnAcc, ViTScratchAcc: scratchAcc,
		})
	}
	return rows, nil
}

// FprintE9 renders the sample-efficiency series.
func FprintE9(w io.Writer, targetName string, rows []E9Row) {
	fmt.Fprintf(w, "E9 — sample efficiency on task %q (accuracy vs target-task scenes)\n", targetName)
	fmt.Fprintf(w, "%-8s %10s %14s %16s\n", "scenes", "iTask", "CNN-scratch", "ViT-scratch")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %9.1f%% %13.1f%% %15.1f%%\n",
			r.Samples, 100*r.ITaskAcc, 100*r.CNNAcc, 100*r.ViTScratchAcc)
	}
}
