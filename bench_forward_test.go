// Forward-pass benchmark: what one detect call costs on each serving model
// at each core width — the table in DESIGN.md §8 that shows a second core
// never makes a lone forward slower. Regenerate with:
//
//	go test -run=NONE -bench=BenchmarkForward -benchtime=2s -cpu 1,2,4 .
package itask_test

import (
	"fmt"
	"sync"
	"testing"

	"itask"
	"itask/internal/scene"
	"itask/internal/tensor"
)

var (
	forwardPipeOnce sync.Once
	forwardPipe     *itask.Pipeline
	forwardPipeErr  error
)

// forwardPipeline is a pipeline with both serving configurations published:
// the int8 generalist ("harvest" has no student, so it routes there) and a
// float student ("patrol"). One epoch on a handful of scenes — the timing
// does not depend on what the weights learned.
func forwardPipeline(b *testing.B) *itask.Pipeline {
	b.Helper()
	forwardPipeOnce.Do(func() {
		o := itask.DefaultOptions()
		o.TrainSamplesPerTask, o.TrainCfg.Epochs = 8, 1
		o.DistillSamples, o.DistillCfg.Train.Epochs = 8, 1
		p := itask.New(o)
		forwardPipeErr = p.TrainGeneralist(nil)
		for _, task := range []struct{ name, mission string }{
			{"patrol", "Detect cars, trucks, pedestrians, cyclists and cones on the road"},
			{"harvest", "Find ripe apples and oranges on the trees"},
		} {
			if forwardPipeErr == nil {
				forwardPipeErr = p.DefineTask(task.name, task.mission)
			}
		}
		if forwardPipeErr == nil {
			forwardPipeErr = p.DistillStudent("patrol", scene.Driving)
		}
		forwardPipe = p
	})
	if forwardPipeErr != nil {
		b.Fatal(forwardPipeErr)
	}
	return forwardPipe
}

// BenchmarkForward times Pipeline.DetectBatchOn — validation, patchify,
// trunk, detection head, decode, priors — for the int8 generalist and the
// float student at batch 1 and 8. ns/op is per call; µs/image divides by
// the batch.
func BenchmarkForward(b *testing.B) {
	p := forwardPipeline(b)
	// Every call sees frames it has not just seen, as a server does: a
	// benchmark that repeats one frame lets the branch predictor learn it.
	imgs := make([]*tensor.Tensor, 64)
	for i := range imgs {
		imgs[i] = tensor.Randn(tensor.NewRNG(uint64(100+i)), 0.5, 3, 32, 32)
	}
	for _, m := range []struct{ model, task string }{{"int8", "harvest"}, {"float", "patrol"}} {
		variant, err := p.ServeBackend().Route(m.task)
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/b%d", m.model, batch), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					at := i * batch % len(imgs)
					out, _, err := p.DetectBatchOn(variant, m.task, imgs[at:at+batch])
					if err != nil {
						b.Fatal(err)
					}
					benchSink += len(out)
				}
				b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*batch), "µs/image")
			})
		}
	}
}
