package distill

import (
	"testing"

	"itask/internal/dataset"
	"itask/internal/eval"
	"itask/internal/kg"
	"itask/internal/llm"
	"itask/internal/scene"
	"itask/internal/tensor"
	"itask/internal/vit"
)

// smallGen returns a fast scene config matched to the tiny model geometry.
func smallGen() scene.GenConfig {
	cfg := scene.DefaultGenConfig()
	cfg.MaxObjects = 2
	return cfg
}

// smallModelCfg is a reduced student for fast tests: 32px images, 4x4 grid.
func smallModelCfg() vit.Config {
	return vit.Config{
		ImageSize: 32, Channels: 3, PatchSize: 8,
		Dim: 32, Depth: 2, Heads: 4, MLPRatio: 2,
		Classes: int(scene.NumClasses),
	}
}

func quickTrainCfg(epochs int) TrainConfig {
	cfg := DefaultTrainConfig()
	cfg.Epochs = epochs
	cfg.BatchSize = 8
	return cfg
}

func TestTrainConfigValidate(t *testing.T) {
	bad := []TrainConfig{
		{},
		{Epochs: 1, BatchSize: 0, LR: 1e-3},
		{Epochs: 1, BatchSize: 1, LR: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d passed", i)
		}
	}
	if err := DefaultTrainConfig().Validate(); err != nil {
		t.Errorf("default invalid: %v", err)
	}
}

func TestTrainReducesLossAndLearns(t *testing.T) {
	rng := tensor.NewRNG(1)
	task, _ := dataset.TaskByName("inspect")
	set := dataset.Build(task, 48, smallGen(), rng)
	m := vit.New(smallModelCfg(), tensor.NewRNG(2))
	rep, err := Train(m, set, quickTrainCfg(10))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != 10*6 {
		t.Errorf("steps = %d", rep.Steps)
	}
	if first, last := rep.EpochLoss[0], rep.EpochLoss[len(rep.EpochLoss)-1]; last >= first {
		t.Errorf("loss did not decrease: %v -> %v", first, last)
	}
	// The trained model should beat chance on its own training data.
	s := eval.Run(eval.DetectorOf(m, eval.DefaultThresholds()), set,
		dataset.ClassInts(task.Classes), eval.DefaultThresholds())
	if s.Accuracy < 0.25 {
		t.Errorf("train-set accuracy %v too low after training", s.Accuracy)
	}
}

func TestTrainAugmentDoublesSteps(t *testing.T) {
	rng := tensor.NewRNG(77)
	task, _ := dataset.TaskByName("harvest")
	set := dataset.Build(task, 16, smallGen(), rng)
	cfg := quickTrainCfg(2)
	m1 := vit.New(smallModelCfg(), tensor.NewRNG(1))
	rep1, err := Train(m1, set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Augment = true
	m2 := vit.New(smallModelCfg(), tensor.NewRNG(1))
	rep2, err := Train(m2, set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Steps != 2*rep1.Steps {
		t.Errorf("augmented steps %d, want %d", rep2.Steps, 2*rep1.Steps)
	}
}

func TestTrainErrors(t *testing.T) {
	m := vit.New(smallModelCfg(), tensor.NewRNG(1))
	if _, err := Train(m, dataset.Set{}, quickTrainCfg(1)); err == nil {
		t.Error("empty dataset should error")
	}
	if _, err := Train(m, dataset.Set{Examples: make([]dataset.Example, 1)}, TrainConfig{}); err == nil {
		t.Error("invalid config should error")
	}
}

func TestDistillConfigValidate(t *testing.T) {
	good := DefaultDistillConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Temp = 0
	if err := bad.Validate(); err == nil {
		t.Error("temp 0 should fail")
	}
	bad = good
	bad.Alpha = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("alpha > 1 should fail")
	}
	bad = good
	bad.FeatureWeight = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative weight should fail")
	}
}

func TestDistillMismatchErrors(t *testing.T) {
	teacher := vit.New(smallModelCfg(), tensor.NewRNG(1))
	wrongClasses := smallModelCfg()
	wrongClasses.Classes = 3
	s1 := vit.New(wrongClasses, tensor.NewRNG(2))
	set := dataset.Set{Examples: make([]dataset.Example, 1)}
	if _, err := Distill(teacher, s1, set, DefaultDistillConfig()); err == nil {
		t.Error("class mismatch should error")
	}
	wrongGeom := smallModelCfg()
	wrongGeom.ImageSize = 16
	wrongGeom.PatchSize = 4
	s2 := vit.New(wrongGeom, tensor.NewRNG(3))
	if _, err := Distill(teacher, s2, set, DefaultDistillConfig()); err == nil {
		t.Error("geometry mismatch should error")
	}
}

// TestDistillTransfersKnowledge is the core distillation test: a student
// distilled from a trained teacher must substantially outperform an
// untrained student, approaching teacher quality on the task.
func TestDistillTransfersKnowledge(t *testing.T) {
	rng := tensor.NewRNG(10)
	task, _ := dataset.TaskByName("inspect")
	trainSet := dataset.Build(task, 64, smallGen(), rng)
	valSet := dataset.Build(task, 24, smallGen(), rng)

	teacherCfg := smallModelCfg()
	teacherCfg.Dim = 48
	teacherCfg.Depth = 3
	teacher := vit.New(teacherCfg, tensor.NewRNG(11))
	if _, err := Train(teacher, trainSet, quickTrainCfg(14)); err != nil {
		t.Fatal(err)
	}

	student := vit.New(smallModelCfg(), tensor.NewRNG(12))
	dcfg := DefaultDistillConfig()
	dcfg.Train = quickTrainCfg(14)
	rep, err := Distill(teacher, student, trainSet, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EpochLoss[len(rep.EpochLoss)-1] >= rep.EpochLoss[0] {
		t.Errorf("distill loss did not decrease: %v", rep.EpochLoss)
	}

	th := eval.DefaultThresholds()
	classes := dataset.ClassInts(task.Classes)
	teacherAcc := eval.Run(eval.DetectorOf(teacher, th), valSet, classes, th).Accuracy
	studentAcc := eval.Run(eval.DetectorOf(student, th), valSet, classes, th).Accuracy
	fresh := vit.New(smallModelCfg(), tensor.NewRNG(13))
	freshAcc := eval.Run(eval.DetectorOf(fresh, th), valSet, classes, th).Accuracy

	if studentAcc <= freshAcc {
		t.Errorf("distilled student (%.3f) no better than untrained (%.3f)", studentAcc, freshAcc)
	}
	if studentAcc < teacherAcc*0.5 {
		t.Errorf("student (%.3f) far below teacher (%.3f)", studentAcc, teacherAcc)
	}
}

func TestDistillWithoutFeatureLoss(t *testing.T) {
	rng := tensor.NewRNG(20)
	task, _ := dataset.TaskByName("harvest")
	set := dataset.Build(task, 16, smallGen(), rng)
	teacher := vit.New(smallModelCfg(), tensor.NewRNG(21))
	student := vit.New(smallModelCfg(), tensor.NewRNG(22))
	cfg := DefaultDistillConfig()
	cfg.Train = quickTrainCfg(2)
	cfg.FeatureWeight = 0 // soft-only ablation path
	if _, err := Distill(teacher, student, set, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestApplyClassPriors(t *testing.T) {
	m := vit.New(smallModelCfg(), tensor.NewRNG(30))
	priors := make([]float64, m.Cfg.Classes)
	priors[int(scene.Gear)] = 1
	// Leave everything else ~0 -> masked.
	detBiasBefore := m.Det.Bias.W.Data[5+int(scene.Gear)]
	if err := ApplyClassPriors(m, priors, 1); err != nil {
		t.Fatal(err)
	}
	gearBias := m.Det.Bias.W.Data[5+int(scene.Gear)]
	carBias := m.Det.Bias.W.Data[5+int(scene.Car)]
	if gearBias-detBiasBefore < -0.01 {
		t.Errorf("relevant class bias dropped: %v", gearBias-detBiasBefore)
	}
	if carBias > gearBias-3 {
		t.Errorf("irrelevant class not masked: car=%v gear=%v", carBias, gearBias)
	}
	// Validation.
	if err := ApplyClassPriors(m, priors[:3], 1); err == nil {
		t.Error("wrong prior length should error")
	}
	priors[0] = 2
	if err := ApplyClassPriors(m, priors, 1); err == nil {
		t.Error("out-of-range prior should error")
	}
}

// TestFewShotKGBeatsNoKG reproduces the core of experiment E4 at test
// scale: with a handful of support samples, KG-conditioned adaptation must
// beat unconditioned fine-tuning of the same base model.
func TestFewShotKGBeatsNoKG(t *testing.T) {
	rng := tensor.NewRNG(40)
	tasks := dataset.StandardTasks()
	// Base generalist trained on three tasks; adapt to the fourth (harvest).
	target, _ := dataset.TaskByName("harvest")
	var pretrain []dataset.Task
	for _, task := range tasks {
		if task.Name != target.Name {
			pretrain = append(pretrain, task)
		}
	}
	base := vit.New(smallModelCfg(), tensor.NewRNG(41))
	mixed := dataset.BuildMixed(pretrain, 20, smallGen(), rng)
	if _, err := Train(base, mixed, quickTrainCfg(10)); err != nil {
		t.Fatal(err)
	}

	// KG priors for the target task from the simulated LLM.
	g, err := llm.New(llm.DefaultOptions()).Generate(target.Name, target.Description)
	if err != nil {
		t.Fatal(err)
	}
	priors := kg.ClassPriors(g, "task:"+target.Name)

	support := dataset.BuildFewShot(target, 4, smallGen(), tensor.NewRNG(42))
	valSet := dataset.Build(target, 24, smallGen(), tensor.NewRNG(43))
	th := eval.DefaultThresholds()
	classes := dataset.ClassInts(target.Classes)

	adapt := func(strength float32, seed uint64) float64 {
		m := vit.New(smallModelCfg(), tensor.NewRNG(seed))
		if err := base.CloneWeightsTo(m); err != nil {
			t.Fatal(err)
		}
		cfg := DefaultFewShotConfig()
		cfg.Train.Epochs = 8
		cfg.PriorStrength = strength
		if _, err := FewShotAdapt(m, priors, support, cfg); err != nil {
			t.Fatal(err)
		}
		return eval.Run(eval.DetectorOf(m, th), valSet, classes, th).Accuracy
	}

	withKG := adapt(1, 50)
	withoutKG := adapt(0, 50)
	if withKG < withoutKG {
		t.Errorf("KG-guided adaptation (%.3f) should not lose to plain fine-tune (%.3f)", withKG, withoutKG)
	}
}

func TestFewShotZeroShot(t *testing.T) {
	m := vit.New(smallModelCfg(), tensor.NewRNG(60))
	priors := make([]float64, m.Cfg.Classes)
	rep, err := FewShotAdapt(m, priors, dataset.Set{}, DefaultFewShotConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != 0 {
		t.Error("zero-shot adaptation should not train")
	}
}
