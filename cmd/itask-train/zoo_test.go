package main

import (
	"path/filepath"
	"testing"

	"itask"
	"itask/internal/eval"
	"itask/internal/experiments"
	"itask/internal/geom"
	"itask/internal/registry"
	"itask/internal/tensor"
)

// TestTablesMeasureServedModels: the zoo itask-train publishes, loaded the
// way itask-serve and the benchmark's oracle load it, is the zoo the paper
// tables measure. At the same recipe and seed the teacher and every student
// carry experiments.BuildEnv's checksums, and on each task's validation
// frames Pipeline.Detect answers as the experiments' detectors do: the int8
// generalist as env.Quant, a student as env.Students with its priors.
func TestTablesMeasureServedModels(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a zoo twice")
	}
	const samples, epochs = 24, 6
	dir := t.TempDir()
	if err := run(dir, samples, epochs, experiments.Seed); err != nil {
		t.Fatal(err)
	}
	env, err := experiments.BuildEnv(experiments.Scale{
		Name: "served", TrainPerTask: samples, DistillSample: samples, ValPerTask: 16,
		TeacherEpochs: epochs, DistillEpochs: epochs,
	})
	if err != nil {
		t.Fatal(err)
	}

	man, _, err := registry.LatestManifest(dir, itask.TeacherArtifact)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := env.Teacher.Checksum(); err != nil || man.Checksum != want {
		t.Fatalf("published teacher %s, the tables' teacher %s (%v)", man.Checksum, want, err)
	}
	opts := itask.DefaultOptions()
	pipe := itask.New(opts)
	for _, task := range env.Tasks {
		if err := pipe.DefineTask(task.Name, task.Description); err != nil {
			t.Fatal(err)
		}
	}
	if err := pipe.LoadGeneralist(filepath.Join(dir, "teacher.ckpt")); err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, pipe, env, opts.PriorThreshold, "generalist", func(string) eval.DetectFunc {
		return func(img *tensor.Tensor) []geom.Scored { return env.Quant.Detect(img, env.Th.Obj, env.Th.NMSIoU) }
	})

	for _, task := range env.Tasks {
		man, vdir, err := registry.LatestManifest(dir, itask.StudentArtifact(task.Name))
		if err != nil {
			t.Fatal(err)
		}
		if err := pipe.LoadStudentVerified(task.Name, filepath.Join(vdir, man.File), man.Checksum); err != nil {
			t.Fatal(err)
		}
		got, err := pipe.Student(task.Name).Checksum()
		if err != nil {
			t.Fatal(err)
		}
		if want, err := env.Students[task.Name].Checksum(); err != nil || got != want {
			t.Errorf("%s: served student %s, the tables' student %s (%v)", task.Name, got, want, err)
		}
	}
	sameAnswers(t, pipe, env, opts.PriorThreshold, "task-specific", func(task string) eval.DetectFunc {
		return eval.DetectorOf(env.Students[task], env.Th)
	})
}

// sameAnswers checks that, on every validation frame of every task, the
// pipeline routes to a model of the given kind and answers with the
// detections the experiment's detector finds, less those its prior filter
// drops. Some frames must have detections to compare.
func sameAnswers(t *testing.T, pipe *itask.Pipeline, env *experiments.Env, threshold float64,
	kind string, detector func(task string) eval.DetectFunc) {
	t.Helper()
	compared := 0
	for _, task := range env.Tasks {
		priors, err := pipe.Priors(task.Name)
		if err != nil {
			t.Fatal(err)
		}
		df := detector(task.Name)
		for i, ex := range env.Val[task.Name].Examples {
			got, info, err := pipe.Detect(task.Name, ex.Image)
			if err != nil {
				t.Fatal(err)
			}
			if info.Kind != kind {
				t.Fatalf("%s: answered by %s (%s), want a %s model", task.Name, info.Name, info.Kind, kind)
			}
			var want []geom.Scored
			for _, d := range df(ex.Image) {
				if priors[d.Class] >= threshold {
					want = append(want, d)
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s frame %d: %d detections served, the tables' %s finds %d", task.Name, i, len(got), kind, len(want))
				continue
			}
			for j := range got {
				if got[j].Box != want[j].Box || got[j].ClassID != want[j].Class || got[j].Score != want[j].Score {
					t.Errorf("%s frame %d detection %d: served %+v, the tables' %s %+v", task.Name, i, j, got[j], kind, want[j])
				}
			}
			compared += len(got)
		}
	}
	if compared == 0 {
		t.Fatalf("no %s detection on any validation frame: nothing compared", kind)
	}
	t.Logf("%d %s detections compared", compared, kind)
}
