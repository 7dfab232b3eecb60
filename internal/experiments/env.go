// Package experiments reproduces the paper's evaluation: every table and
// figure (reconstructed from the abstract's claims — see DESIGN.md §4) is a
// function from a trained Env to typed rows, shared by the benchmark
// harness (bench_test.go) and the itask-bench CLI so the numbers reported
// in EXPERIMENTS.md come from exactly one code path.
package experiments

import (
	"fmt"

	"itask/internal/dataset"
	"itask/internal/eval"
	"itask/internal/geom"
	"itask/internal/kg"
	"itask/internal/llm"
	"itask/internal/quant"
	"itask/internal/scene"
	"itask/internal/tensor"
	"itask/internal/vit"
	"itask/internal/zoo"
)

// Scale sets the data/training budget of the accuracy experiments.
// Hardware experiments (E3, E5, E6) are analytical and scale-free.
type Scale struct {
	Name          string
	TrainPerTask  int
	DistillSample int
	ValPerTask    int
	TeacherEpochs int
	DistillEpochs int
	FewShotKs     []int
	FewShotEpochs int
	// E9Samples are the target-task training-set sizes of the sample
	// efficiency study.
	E9Samples []int
}

// QuickScale finishes the full suite in seconds; CI runs it on every push.
func QuickScale() Scale {
	return Scale{
		Name:          "quick",
		TrainPerTask:  48,
		DistillSample: 72,
		ValPerTask:    32,
		TeacherEpochs: 16,
		DistillEpochs: 16,
		FewShotKs:     []int{0, 1, 2, 4, 8},
		FewShotEpochs: 8,
		E9Samples:     []int{8, 16, 32, 64},
	}
}

// FullScale is the larger setting for the numbers in EXPERIMENTS.md.
func FullScale() Scale {
	return Scale{
		Name:          "full",
		TrainPerTask:  160,
		DistillSample: 200,
		ValPerTask:    80,
		TeacherEpochs: 30,
		DistillEpochs: 30,
		FewShotKs:     []int{0, 1, 2, 4, 8, 16, 32},
		FewShotEpochs: 12,
		E9Samples:     []int{4, 8, 16, 32, 64, 128},
	}
}

// HWTeacherCfg is the paper-scale model geometry used for the hardware
// experiments (these need no training, so the full 8×8-grid ViT is used).
func HWTeacherCfg() vit.Config { return vit.TeacherConfig(int(scene.NumClasses)) }

// HWStudentCfg is the paper-scale student for hardware experiments.
func HWStudentCfg() vit.Config { return vit.StudentConfig(int(scene.NumClasses)) }

// Env holds every trained artifact the accuracy experiments share.
type Env struct {
	Scale   Scale
	Tasks   []dataset.Task
	Teacher *vit.Model
	// Quant is the teacher quantized to int8: the paper's "quantized
	// version of the model", and the generalist every serving program
	// quantizes from teacher.ckpt.
	Quant *quant.Model
	// QuantBase is the zoo's student-sized base, distilled on the task
	// mixture, quantized to int8: E1's matched-capacity alternative to
	// Quant.
	QuantBase *quant.Model
	// Students are the zoo's students conditioned on their task's priors,
	// as a served student is.
	Students map[string]*vit.Model
	Graphs   map[string]*kg.Graph
	Priors   map[string][]float64
	Val      map[string]dataset.Set
	Gen      scene.GenConfig
	Th       eval.Thresholds
}

// Seed is the master seed of the accuracy experiments' zoo.
const Seed = 20250704

// BuildEnv builds the model zoo (internal/zoo) at the scale's recipe and
// Seed, then the per-task knowledge graphs and validation sets. At a scale
// with TrainPerTask = DistillSample and TeacherEpochs = DistillEpochs, its
// teacher and students are the weights itask-train writes at the same
// sizes and seed.
func BuildEnv(s Scale) (*Env, error) {
	rng := tensor.NewRNG(Seed)
	env := &Env{
		Scale:    s,
		Tasks:    dataset.StandardTasks(),
		Students: map[string]*vit.Model{},
		Graphs:   map[string]*kg.Graph{},
		Priors:   map[string][]float64{},
		Val:      map[string]dataset.Set{},
		Gen:      scene.DefaultGenConfig(),
		Th:       eval.DefaultThresholds(),
	}

	// Knowledge graphs from the simulated LLM.
	gen := llm.New(llm.DefaultOptions())
	for _, task := range env.Tasks {
		g, err := gen.Generate(task.Name, task.Description)
		if err != nil {
			return nil, fmt.Errorf("experiments: KG for %s: %w", task.Name, err)
		}
		env.Graphs[task.Name] = g
		env.Priors[task.Name] = kg.ClassPriors(g, "task:"+task.Name)
	}

	r := zoo.NewRecipe(s.TrainPerTask, s.DistillSample, s.TeacherEpochs, s.DistillEpochs)
	z, err := zoo.Build(r, env.Tasks, rng)
	if err != nil {
		return nil, err
	}
	env.Teacher, env.Quant = z.Teacher, z.Generalist
	for name, student := range z.Students {
		if err := zoo.WithPriors(student, env.Priors[name]); err != nil {
			return nil, err
		}
		env.Students[name] = student
	}
	base, err := zoo.DistillBase(r, z.Teacher, env.Tasks, rng)
	if err != nil {
		return nil, err
	}
	if env.QuantBase, err = quant.FromViT(base, quant.DefaultConfig()); err != nil {
		return nil, err
	}

	// Validation sets.
	for _, task := range env.Tasks {
		env.Val[task.Name] = dataset.Build(task, s.ValPerTask, env.Gen, rng.Split())
	}
	return env, nil
}

// meanAcc is a detector's accuracy on each task's validation set, averaged
// over the tasks.
func (e *Env) meanAcc(df eval.DetectFunc) float64 {
	var sum float64
	for _, task := range e.Tasks {
		sum += eval.Run(df, e.Val[task.Name], dataset.ClassInts(task.Classes), e.Th).Accuracy
	}
	return sum / float64(len(e.Tasks))
}

// quantDetector wraps an int8 model as an eval.DetectFunc.
func (e *Env) quantDetector(qm *quant.Model) eval.DetectFunc {
	return func(img *tensor.Tensor) []geom.Scored {
		return qm.Detect(img, e.Th.Obj, e.Th.NMSIoU)
	}
}
