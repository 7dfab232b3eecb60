package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"itask/internal/tensor"
)

// batchDelayBackend costs a fixed off-CPU delay per execution — the
// simplest model under which a queue position is worth a fixed amount of
// latency.
type batchDelayBackend struct{ delay time.Duration }

func (batchDelayBackend) Route(string) (string, error) { return "m@v1#aa", nil }
func (b batchDelayBackend) DetectBatch(variant, task string, imgs []*tensor.Tensor) ([]any, string, error) {
	time.Sleep(b.delay)
	out := make([]any, len(imgs))
	for i := range imgs {
		out[i] = i
	}
	return out, variant, nil
}

// BenchmarkFairVsFIFO measures the latency a well-behaved minority tenant
// pays while a flooding tenant keeps the queue backlogged — the 2-tenant
// skewed workload from the ISSUE. ns/op is one paced light-tenant request,
// end to end.
//
//	fifo: both streams carry no tenant label, so everything lands in the
//	      default tenant's subqueue and DRR degenerates to the seed's FIFO —
//	      the light request waits behind the whole backlog.
//	fair: the flood is labeled "heavy", the paced stream "light", equal
//	      weights — DRR grants the light subqueue a slot every rotation
//	      regardless of backlog depth.
func BenchmarkFairVsFIFO(b *testing.B) {
	// 1ms per execution makes queueing discipline — not goroutine
	// scheduling noise on small CI boxes — the dominant term in the light
	// tenant's latency: a FIFO backlog of 128 is 64 execution-times deep
	// per worker.
	backend := batchDelayBackend{delay: time.Millisecond}
	for _, tc := range []struct {
		name string
		fair bool
	}{
		{name: "fifo"},
		{name: "fair", fair: true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := Config{
				Workers: 2, QueueCap: 128,
			}
			heavy, light := DefaultTenant, DefaultTenant
			if tc.fair {
				cfg.TenantWeights = map[string]int{"heavy": 1, "light": 1}
				heavy, light = "heavy", "light"
			}
			s, err := New(backend, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				_ = s.Shutdown(ctx)
			}()

			// Flooding tenant: one open-loop feeder pinning the queue at
			// its admission cap via async Submit (outcome channels are
			// buffered; the flood never reads them). Without an open loop
			// the backlog the light tenant must bypass never builds.
			var stop atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				scratch := benchImage(1_000_000, 4)
				for n := float32(0); !stop.Load(); n++ {
					scratch.Data[0] = n
					img := tensor.New(3, 4, 4)
					copy(img.Data, scratch.Data)
					_, err := s.Submit(Request{Task: "patrol", Image: img, Tenant: heavy})
					switch {
					case err == nil:
					case errors.Is(err, ErrQueueFull):
						// Back off instead of spin-retrying: on small CI
						// boxes a hot retry loop starves the runtime
						// scheduler and drowns the measurement.
						time.Sleep(200 * time.Microsecond)
					case errors.Is(err, ErrShuttingDown):
					default:
						b.Errorf("flood: %v", err)
						return
					}
				}
			}()
			// The flood must die even when the measurement fails, or it
			// keeps burning CPU under the next sub-benchmark.
			b.Cleanup(func() {
				stop.Store(true)
				wg.Wait()
			})
			// Let the flood build a backlog before timing.
			time.Sleep(50 * time.Millisecond)

			img := benchImage(999, 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				img.Data[0] = float32(i)
				// In fifo mode the light tenant shares the flooded queue, so
				// admission itself fails intermittently; the retry wait is
				// part of the latency FIFO costs the well-behaved tenant.
				for {
					_, err := s.Detect(context.Background(), Request{Task: "patrol", Image: img, Tenant: light})
					if err == nil {
						break
					}
					if !errors.Is(err, ErrQueueFull) {
						b.Fatal(err)
					}
					time.Sleep(200 * time.Microsecond)
				}
			}
			b.StopTimer()
		})
	}
}
