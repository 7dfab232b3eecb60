// Package zoo holds the one recipe that builds iTask's models: the two
// architectures, the multi-task teacher, one distilled and fine-tuned
// student per task, the int8 generalist quantized from the teacher, and a
// student-sized base distilled on the task mixture. itask-train publishes
// what it builds, the Pipeline trains through its steps, and the
// experiments measure it, so the tables measure the models that are served.
//
// Every step draws from the caller's RNG in a fixed order, so a recipe and
// a seed name the same weights whoever runs them.
package zoo

import (
	"errors"
	"fmt"
	"sync"

	"itask/internal/dataset"
	"itask/internal/distill"
	"itask/internal/quant"
	"itask/internal/scene"
	"itask/internal/tensor"
	"itask/internal/vit"
)

// priorStrength is how strongly a task's knowledge-graph priors bias a
// student's class heads. Students are built and saved without them; they
// are applied once, where a student is published or loaded for its task.
const priorStrength = 0.5

// fineTuneLR is the learning rate of a student's supervised fine-tune.
const fineTuneLR = 1e-3

// TeacherCfg is the multi-task teacher's architecture, which the int8
// generalist keeps (laptop-scale geometry).
func TeacherCfg() vit.Config {
	return vit.Config{
		ImageSize: 32, Channels: 3, PatchSize: 8,
		Dim: 48, Depth: 3, Heads: 4, MLPRatio: 2,
		Classes: int(scene.NumClasses),
	}
}

// StudentCfg is the architecture of the task-specific students and the base.
func StudentCfg() vit.Config {
	return vit.Config{
		ImageSize: 32, Channels: 3, PatchSize: 8,
		Dim: 32, Depth: 2, Heads: 4, MLPRatio: 2,
		Classes: int(scene.NumClasses),
	}
}

// Recipe is how much data and training a zoo gets. The RNG seeds of its
// training configurations are ignored: every step draws its own.
type Recipe struct {
	TeacherCfg, StudentCfg vit.Config
	Gen                    scene.GenConfig
	// TrainPerTask is the scenes per task in the mixture the teacher trains
	// on and the base distills on.
	TrainPerTask int
	// DistillPerTask is the scenes of its task a student learns from.
	DistillPerTask int
	// TrainCfg trains the teacher. DistillCfg distills the students and the
	// base; a student's fine-tune runs as many epochs.
	TrainCfg   distill.TrainConfig
	DistillCfg distill.DistillConfig
}

// NewRecipe is the default recipe at a data and training budget.
func NewRecipe(trainPerTask, distillPerTask, teacherEpochs, distillEpochs int) Recipe {
	r := Recipe{
		TeacherCfg:     TeacherCfg(),
		StudentCfg:     StudentCfg(),
		Gen:            scene.DefaultGenConfig(),
		TrainPerTask:   trainPerTask,
		DistillPerTask: distillPerTask,
		TrainCfg:       distill.DefaultTrainConfig(),
		DistillCfg:     distill.DefaultDistillConfig(),
	}
	r.TrainCfg.Epochs = teacherEpochs
	r.DistillCfg.Train.Epochs = distillEpochs
	return r
}

// Zoo is what Build makes.
type Zoo struct {
	Teacher *vit.Model
	// Generalist is the teacher at quant.DefaultConfig: the int8 generalist
	// every serving program quantizes from teacher.ckpt.
	Generalist *quant.Model
	// Students holds one student per task, without its priors.
	Students map[string]*vit.Model
}

// Build trains the teacher on the mixture of tasks, quantizes it, and
// builds each task's student. The students' draws are taken in task order
// before any trains, so they train concurrently and still get the weights a
// sequential build gives. The caller may go on drawing from rng.
func Build(r Recipe, tasks []dataset.Task, rng *tensor.RNG) (*Zoo, error) {
	teacher, err := TrainTeacher(r, tasks, rng)
	if err != nil {
		return nil, err
	}
	qm, err := quant.FromViT(teacher, quant.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("zoo: quantizing the teacher: %w", err)
	}
	students := make([]*vit.Model, len(tasks))
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i, task := range tasks {
		d := drawStudent(rng)
		wg.Add(1)
		go func() {
			defer wg.Done()
			students[i], errs[i] = d.train(r, teacher, task)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	z := &Zoo{Teacher: teacher, Generalist: qm, Students: map[string]*vit.Model{}}
	for i, task := range tasks {
		z.Students[task.Name] = students[i]
	}
	return z, nil
}

// TrainTeacher trains the multi-task teacher on a mixture of tasks. It
// draws the mixture, the initial weights and the shuffling seed.
func TrainTeacher(r Recipe, tasks []dataset.Task, rng *tensor.RNG) (*vit.Model, error) {
	mixed := dataset.BuildMixed(tasks, r.TrainPerTask, r.Gen, rng.Split())
	teacher := vit.New(r.TeacherCfg, rng.Split())
	cfg := r.TrainCfg
	cfg.Seed = rng.Uint64()
	if _, err := distill.Train(teacher, mixed, cfg); err != nil {
		return nil, fmt.Errorf("zoo: training the teacher: %w", err)
	}
	return teacher, nil
}

// DistillStudent builds a task's student: distillation from the teacher on
// task scenes transfers the teacher's representation, and a supervised
// fine-tune on the same scenes specializes it ("optimized for high accuracy
// in defined tasks"). Only the task's Name and Domain are read.
func DistillStudent(r Recipe, teacher *vit.Model, task dataset.Task, rng *tensor.RNG) (*vit.Model, error) {
	return drawStudent(rng).train(r, teacher, task)
}

// studentDraws is what a student takes from the zoo's stream, in the order
// it takes it: its scenes, its initial weights, and the shuffling seeds of
// its distillation and fine-tune.
type studentDraws struct {
	set, init             *tensor.RNG
	distillSeed, tuneSeed uint64
}

func drawStudent(rng *tensor.RNG) studentDraws {
	return studentDraws{set: rng.Split(), init: rng.Split(), distillSeed: rng.Uint64(), tuneSeed: rng.Uint64()}
}

// train builds the student from its draws. The teacher is only read.
func (d studentDraws) train(r Recipe, teacher *vit.Model, task dataset.Task) (*vit.Model, error) {
	set := dataset.Build(task, r.DistillPerTask, r.Gen, d.set)
	student := vit.New(r.StudentCfg, d.init)
	dcfg := r.DistillCfg
	dcfg.Train.Seed = d.distillSeed
	if _, err := distill.Distill(teacher, student, set, dcfg); err != nil {
		return nil, fmt.Errorf("zoo: distilling the %s student: %w", task.Name, err)
	}
	ft := distill.DefaultTrainConfig()
	ft.Epochs = dcfg.Train.Epochs
	ft.LR = fineTuneLR
	ft.Seed = d.tuneSeed
	if _, err := distill.Train(student, set, ft); err != nil {
		return nil, fmt.Errorf("zoo: fine-tuning the %s student: %w", task.Name, err)
	}
	return student, nil
}

// DistillBase distills a student-sized model from the teacher on a fresh
// mixture of tasks: the starting point of few-shot adaptation, and the
// quantized generalist's matched-capacity alternative in E1.
func DistillBase(r Recipe, teacher *vit.Model, tasks []dataset.Task, rng *tensor.RNG) (*vit.Model, error) {
	mixed := dataset.BuildMixed(tasks, r.TrainPerTask, r.Gen, rng.Split())
	base := vit.New(r.StudentCfg, rng.Split())
	cfg := r.DistillCfg
	cfg.Train.Seed = rng.Uint64()
	if _, err := distill.Distill(teacher, base, mixed, cfg); err != nil {
		return nil, fmt.Errorf("zoo: distilling the base: %w", err)
	}
	return base, nil
}

// WithPriors conditions a student on its task's knowledge-graph priors.
func WithPriors(student *vit.Model, priors []float64) error {
	return distill.ApplyClassPriors(student, priors, priorStrength)
}
