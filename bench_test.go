// Per-op microbenchmarks, and the serving-throughput comparison paced by the
// accelerator model. The paper's tables come from `go run ./cmd/itask-bench`
// and their claims are asserted by `go test ./internal/experiments/`; the
// forward pass is timed by bench_forward_test.go.
package itask_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"itask/internal/dataset"
	"itask/internal/experiments"
	"itask/internal/hwsim"
	"itask/internal/llm"
	"itask/internal/scene"
	"itask/internal/serve"
	"itask/internal/tensor"
	"itask/internal/vit"
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
	cfg := experiments.StudentModelCfg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := dataset.Pack(cfg, set.Examples)
		benchSink += batch.Patches.Size()
	}
}

// pacedBackend is a serve.Backend paced by the simulated accelerator: each
// DetectBatch sleeps the total accelerator latency of executing the batch
// (per-image latency at that batch size × batch), so serving throughput
// reflects the hardware model's weight-stationary batching amortization
// rather than this host's core count.
type pacedBackend struct {
	accel hwsim.AccelConfig
	cfg   vit.Config
}

func (p *pacedBackend) Route(task string) (string, error) { return "generalist", nil }

func (p *pacedBackend) DetectBatch(variant, task string, imgs []*tensor.Tensor) ([]any, string, error) {
	rep := hwsim.SimulateAccelBatch(p.accel, p.cfg, len(imgs))
	time.Sleep(time.Duration(rep.LatencyUS*float64(len(imgs))) * time.Microsecond)
	out := make([]any, len(imgs))
	for i := range imgs {
		out[i] = struct{}{}
	}
	return out, "generalist", nil
}

// serveRow is one operating point of the serving throughput sweep.
type serveRow struct {
	maxBatch  int
	rps       float64
	meanBatch float64
	batchHist []uint64 // batchHist[i] counts batches of size i+1
	p95US     float64
}

// runServeLoad drives `requests` concurrent detections through a server
// with the given batch cap and returns the measured throughput.
func runServeLoad(maxBatch int) (serveRow, error) {
	be := &pacedBackend{accel: hwsim.DefaultAccel(), cfg: experiments.StudentModelCfg()}
	cfg := serve.Config{Workers: 2, MaxBatch: maxBatch, QueueCap: 512}
	s, err := serve.New(be, cfg)
	if err != nil {
		return serveRow{}, err
	}
	const (
		clients = 32
		perConn = 12
	)
	img := tensor.New(1)
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perConn; i++ {
				if _, err := s.Detect(context.Background(), serve.Request{Task: "patrol", Image: img}); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return serveRow{}, err
	}
	select {
	case err := <-errCh:
		return serveRow{}, err
	default:
	}
	snap := s.Snapshot()
	return serveRow{
		maxBatch:  maxBatch,
		rps:       float64(clients*perConn) / elapsed.Seconds(),
		meanBatch: snap.MeanBatch,
		batchHist: snap.BatchHist,
		p95US:     snap.LatencyP95US,
	}, nil
}

var (
	serveBenchOnce sync.Once
	serveBenchRows []serveRow
	serveBenchErr  error
)

// BenchmarkServeMicroBatching measures the serving layer's throughput with
// micro-batching disabled (batch cap 1: one accelerator pass per request)
// versus enabled (cap 8), on the same two-worker pool under the same
// 32-client closed-loop load. The batched configuration must win: lanes
// coalesce concurrent requests and the accelerator's weight-stationary
// reuse makes a batch of 8 far cheaper than 8 single passes.
func BenchmarkServeMicroBatching(b *testing.B) {
	serveBenchOnce.Do(func() {
		for _, cap := range []int{1, 8} {
			row, err := runServeLoad(cap)
			if err != nil {
				serveBenchErr = err
				return
			}
			serveBenchRows = append(serveBenchRows, row)
		}
	})
	if serveBenchErr != nil {
		b.Fatal(serveBenchErr)
	}
	fmt.Printf("\n%-10s %12s %12s %12s  %s\n", "max-batch", "rps", "mean-batch", "p95(us)", "batches of size 1..max")
	for _, r := range serveBenchRows {
		fmt.Printf("%-10d %12.0f %12.2f %12.0f  %v\n", r.maxBatch, r.rps, r.meanBatch, r.p95US, r.batchHist)
	}
	speedup := serveBenchRows[1].rps / serveBenchRows[0].rps
	fmt.Printf("micro-batching throughput gain: %.2fx\n\n", speedup)
	if speedup <= 1 {
		b.Fatalf("batched serving (%.0f rps) not faster than unbatched (%.0f rps)",
			serveBenchRows[1].rps, serveBenchRows[0].rps)
	}
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(serveBenchRows[1].rps, "rps")
}
