// Per-op microbenchmarks. The paper's tables come from `go run
// ./cmd/itask-bench` and their claims are asserted by `go test
// ./internal/experiments/`; the forward pass is timed by
// bench_forward_test.go.
package itask_test

import (
	"testing"

	"itask/internal/dataset"
	"itask/internal/experiments"
	"itask/internal/hwsim"
	"itask/internal/llm"
	"itask/internal/scene"
	"itask/internal/tensor"
	"itask/internal/zoo"
)

var benchSink int

// BenchmarkLLMGenerate measures mission-description-to-knowledge-graph
// generation.
func BenchmarkLLMGenerate(b *testing.B) {
	gen := llm.New(llm.DefaultOptions())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := gen.Generate("patrol", "Detect cars, trucks, pedestrians and cyclists, ignore vegetation")
		if err != nil {
			b.Fatal(err)
		}
		benchSink += g.NumEdges()
	}
}

// BenchmarkHWSimModel measures one full accelerator model simulation.
func BenchmarkHWSimModel(b *testing.B) {
	accel := hwsim.DefaultAccel()
	model := experiments.HWTeacherCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := hwsim.SimulateAccel(accel, model)
		benchSink += len(r.Layers)
	}
}

// BenchmarkSceneGeneration measures synthetic scene rendering.
func BenchmarkSceneGeneration(b *testing.B) {
	rng := tensor.NewRNG(1)
	dom := scene.GetDomain(scene.Driving)
	cfg := scene.DefaultGenConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := scene.Generate(dom, cfg, rng)
		benchSink += len(sc.Objects)
	}
}

// BenchmarkDatasetPack measures batch packing (patchify + target encode).
func BenchmarkDatasetPack(b *testing.B) {
	rng := tensor.NewRNG(1)
	task, _ := dataset.TaskByName("patrol")
	set := dataset.Build(task, 8, scene.DefaultGenConfig(), rng)
	cfg := zoo.StudentCfg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := dataset.Pack(cfg, set.Examples)
		benchSink += batch.Patches.Size()
	}
}
