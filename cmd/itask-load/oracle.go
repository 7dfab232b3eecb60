package main

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"

	"itask"
	"itask/internal/dataset"
	"itask/internal/tensor"
)

// tolerance bounds how far a served answer may sit from the oracle's.
type tolerance struct {
	score, box float64
	// unmatched is how many detections, counted over both answers, may
	// have no counterpart in the other.
	unmatched int
}

var (
	// exact is for answers computed the way the oracle computes them: the
	// float student at any batch size (its rows do not interact: none of
	// 2048 frames differed between batch 1 and batch 2 or 8), and the int8
	// generalist executed alone. Both must then agree to the last digit
	// JSON carries.
	exact = tolerance{score: 1e-9, box: 1e-9}
	// batched is for the int8 generalist when the answer came from (or may
	// have come from: cached, coalesced) a batch of several frames. Its
	// activation scales are taken per tensor over the whole batch, so
	// companions shift them. Measured with the benchmark's zoo, batch 2, 3
	// and 8 against batch 1, 24 576 answers each: 36 % differ in some
	// digit; within 0.15 on score and box, 1-3.6 % leave a detection
	// unpaired, 0.16 % leave three or more (one detection changing class or
	// crossing the objectness threshold beside another), 2 answers left
	// four, none more. Four are allowed, so the rule never cries wolf; it
	// still catches an answer for another frame with five or more objects.
	batched = tolerance{score: 0.15, box: 0.15, unmatched: 4}
)

// oracle recomputes answers in process from the same checkpoints the
// servers loaded.
type oracle struct {
	pipe *itask.Pipeline
	// family maps each task to the model name that must answer it.
	family map[string]string
}

// newOracle loads the work copy of the zoo the way itask-serve does: the
// teacher checkpoint becomes the quantized generalist, and every student
// still published in the directory is loaded for its task.
func newOracle(zoo string) (*oracle, error) {
	pipe := itask.New(itask.DefaultOptions())
	for _, t := range dataset.StandardTasks() {
		if err := pipe.DefineTask(t.Name, t.Description); err != nil {
			return nil, err
		}
	}
	if err := pipe.LoadGeneralist(filepath.Join(zoo, "teacher.ckpt")); err != nil {
		return nil, err
	}
	for _, t := range dataset.StandardTasks() {
		ckpt, err := filepath.Glob(filepath.Join(zoo, itask.StudentArtifact(t.Name), "v*", "student.ckpt"))
		if err != nil {
			return nil, err
		}
		if len(ckpt) == 0 {
			continue // dropped from the work copy: the generalist serves this task
		}
		if err := pipe.LoadStudent(t.Name, ckpt[len(ckpt)-1]); err != nil {
			return nil, err
		}
	}
	return oracleOver(pipe)
}

// oracleOver wraps an already-loaded pipeline.
func oracleOver(pipe *itask.Pipeline) (*oracle, error) {
	o := &oracle{pipe: pipe, family: map[string]string{}}
	for _, task := range pipe.Tasks() {
		variant, err := pipe.ServeBackend().Route(task)
		if err != nil {
			return nil, fmt.Errorf("oracle: routing %s: %w", task, err)
		}
		o.family[task] = modelName(variant)
	}
	return o, nil
}

// check recomputes one sampled answer and returns why it is wrong, or nil,
// and whether the answer was held to the exact tolerance.
func (o *oracle) check(u *universe, a sampled) (exactly bool, err error) {
	var got []itask.Detection
	if err := json.Unmarshal(a.env.Detections, &got); err != nil {
		return false, fmt.Errorf("undecodable detections: %w", err)
	}
	img := tensor.FromSlice(u.pixels(a.req.rank), imageShape[:]...)
	want, info, err := o.pipe.Detect(a.req.task, img)
	if err != nil {
		return false, fmt.Errorf("oracle detect: %w", err)
	}
	if modelName(a.env.Model) != info.Name {
		return false, fmt.Errorf("answered by %s, oracle routes %s to %s", a.env.Model, a.req.task, info.Name)
	}
	tol := exact
	quantized := info.Name == itask.GeneralistArtifact(itask.DefaultOptions().Quant.Bits)
	if quantized && (a.env.BatchSize > 1 || a.env.Cached || a.env.Coalesced) {
		tol = batched
	}
	if err := matchDetections(got, want, tol); err != nil {
		return tol == exact, fmt.Errorf("frame %d task %s model %s batch %d: %w", a.req.rank, a.req.task, a.env.Model, a.env.BatchSize, err)
	}
	return tol == exact, nil
}

// matchDetections pairs each detection of got with the nearest unused
// detection of want that has the same class and lies within tol, and
// reports an error when more than tol.unmatched are left over.
func matchDetections(got, want []itask.Detection, tol tolerance) error {
	used := make([]bool, len(want))
	left := 0
	for _, g := range got {
		best, bestD := -1, math.Inf(1)
		for i, w := range want {
			if used[i] || w.Class != g.Class || math.Abs(w.Score-g.Score) > tol.score {
				continue
			}
			d := math.Max(math.Max(math.Abs(w.Box.X-g.Box.X), math.Abs(w.Box.Y-g.Box.Y)),
				math.Max(math.Abs(w.Box.W-g.Box.W), math.Abs(w.Box.H-g.Box.H)))
			if d <= tol.box && d < bestD {
				best, bestD = i, d
			}
		}
		if best < 0 {
			left++
			continue
		}
		used[best] = true
	}
	for _, u := range used {
		if !u {
			left++
		}
	}
	if left > tol.unmatched {
		return fmt.Errorf("%d detections without a counterpart (served %d, oracle %d, %d allowed)", left, len(got), len(want), tol.unmatched)
	}
	return nil
}
