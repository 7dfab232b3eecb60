// Command itask-train trains the iTask model zoo — the multi-task teacher
// and one distilled, fine-tuned student per standard task, by the recipe in
// internal/zoo — and saves checkpoints that other tools and programs can
// load with vit.LoadParams. Students are saved without their task's
// knowledge-graph priors: whatever loads one for its task applies them.
//
// It publishes each artifact into the versioned registry layout
// (<out>/<name>/v<N>/{manifest.json, weights}), with the manifest checksum
// produced by the checksummed save path, so itask-serve's -models and
// /v1/models/reload load (and hot-swap) the new versions with end-to-end
// integrity verification. Re-running into the same -out directory publishes
// the next version of each name; existing versions are immutable. Students
// are written there only. The teacher also keeps a flat copy at the root,
// teacher.ckpt: what itask-detect -models loads, and what a reload falls
// back to in a directory without the registry layout. No int8 generalist is
// written: every program that serves one quantizes it from the teacher.
//
// -samples is the scenes per task of the teacher's mixture and of each
// student's set; -epochs is the teacher's, and each of a student's
// distillation and fine-tune. At the same sizes and seed, the experiments'
// zoo (experiments.BuildEnv) has this teacher and these students, so the
// paper tables measure the checkpoints written here.
//
// Usage:
//
//	itask-train -out ./models [-samples 96] [-epochs 20] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"itask/internal/dataset"
	"itask/internal/registry"
	"itask/internal/tensor"
	"itask/internal/zoo"
)

func main() {
	outDir := flag.String("out", "models", "output directory for checkpoints")
	samples := flag.Int("samples", 96, "training scenes per task")
	epochs := flag.Int("epochs", 20, "training epochs")
	seed := flag.Uint64("seed", 1, "master seed")
	flag.Parse()

	if err := run(*outDir, *samples, *epochs, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "itask-train: %v\n", err)
		os.Exit(1)
	}
}

func run(outDir string, samples, epochs int, seed uint64) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	fmt.Printf("training the zoo (%d scenes/task, %d epochs)...\n", samples, epochs)
	r := zoo.NewRecipe(samples, samples, epochs, epochs)
	r.TrainCfg.Log = os.Stdout
	tasks := dataset.StandardTasks()
	z, err := zoo.Build(r, tasks, tensor.NewRNG(seed))
	if err != nil {
		return err
	}
	if err := z.Teacher.SaveFile(filepath.Join(outDir, "teacher.ckpt")); err != nil {
		return err
	}
	if err := publishVersion(outDir, "teacher", registry.Teacher, "", "teacher.ckpt", z.Teacher.SaveFileSum); err != nil {
		return err
	}
	for _, task := range tasks {
		if err := publishVersion(outDir, task.Name+"-student", registry.TaskSpecific, task.Name, "student.ckpt", z.Students[task.Name].SaveFileSum); err != nil {
			return err
		}
	}
	fmt.Printf("checkpoints written to %s\n", outDir)
	return nil
}

// publishVersion writes one artifact into the registry layout under root:
// the next version directory for name, the checksummed weights file (save is
// vit's SaveFileSum, returning the content hash), and last the
// manifest — the commit point; a crash before it leaves no visible version.
func publishVersion(root, name string, kind registry.Kind, task, file string,
	save func(path string) (string, error)) error {
	v, err := registry.LatestVersion(root, name)
	if err != nil {
		return err
	}
	man := registry.Manifest{Name: name, Version: v + 1, Kind: kind.String(), Task: task, File: file}
	dir := registry.VersionDir(root, name, man.Version)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sum, err := save(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	man.Checksum = sum
	if _, err := registry.WriteManifest(root, man); err != nil {
		return err
	}
	fmt.Printf("published %s@v%d (checksum %s)\n", name, man.Version, sum)
	return nil
}
