package gateway_test

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"itask/internal/chaos"
	"itask/internal/gateway"
	"itask/internal/serve"
)

// capNode models a shard as a capacity: up to cap requests execute
// concurrently, each costing a fixed service time; arrivals beyond cap
// queue on the semaphore. This is the regime where routing policy is
// everything — a shard absorbing more than its share of a zipf workload
// saturates and its queue, not the work, dominates tail latency.
type capNode struct {
	id  string
	sem chan struct{}
}

func newCapNode(id string, capacity int) *capNode {
	return &capNode{id: id, sem: make(chan struct{}, capacity)}
}

func (n *capNode) ID() string { return n.id }

func (n *capNode) Detect(ctx context.Context, _ serve.Request) (serve.Result, error) {
	select {
	case n.sem <- struct{}{}:
	case <-ctx.Done():
		return serve.Result{}, ctx.Err()
	}
	time.Sleep(100 * time.Microsecond)
	<-n.sem
	return serve.Result{Model: n.id, BatchSize: 1}, nil
}

// BenchmarkGatewayFanout drives a zipf(1.1) workload (rank 0 draws ~20% of
// all traffic) at a 4-shard fleet and reports p50/p99 latency alongside
// ns/op. Variants:
//
//	single:  plain consistent hashing — every digest has exactly one owner,
//	         so the hot head lands entirely on one shard.
//	bounded: single + bounded-load (c=1.25) spill past saturated owners.
//	hotrep:  single + hot-key detection replicating hot digests over 3
//	         shards with power-of-two-choices balancing.
//	full:    bounded + hotrep — the shipped default policy.
//
// The expected shape: all variants move ~the same work, but single's p99 is
// dominated by queueing on the hot shard while the others spread the head
// and flatten the tail. It is a hand-run check (go test -run '^$'
// -bench GatewayFanout ./internal/gateway/); the live benchmark's
// fleet_zipf workload carries the same policy's gateway.spill_share and
// gateway.shard_imbalance.
func BenchmarkGatewayFanout(b *testing.B) {
	for _, tc := range []struct {
		name    string
		bounded bool
		hot     bool
	}{
		{name: "zipf11/single"},
		{name: "zipf11/bounded", bounded: true},
		{name: "zipf11/hotrep", hot: true},
		{name: "zipf11/full", bounded: true, hot: true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := gateway.Config{VirtualNodes: 64, MaxRetries: 1}
			if tc.bounded {
				cfg.LoadFactor = 1.25
			}
			if tc.hot {
				cfg.HotThreshold = 32
				cfg.HotReplicas = 3
			}
			g, err := gateway.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer g.Close()
			for _, id := range []string{"shard-a", "shard-b", "shard-c", "shard-d"} {
				if err := g.AddNode(newCapNode(id, 4)); err != nil {
					b.Fatal(err)
				}
			}
			universe := chaos.ZipfImages(256, 3, 8, 8)

			var (
				mu     sync.Mutex
				lats   []float64
				gid    atomic.Uint64
				failed atomic.Uint64
			)
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				zs := chaos.NewZipfStream(gid.Add(1), 1.1, len(universe))
				ctx := context.Background()
				local := make([]float64, 0, 1024)
				for pb.Next() {
					im := universe[zs.Next()]
					t0 := time.Now()
					if _, err := g.Detect(ctx, serve.Request{Task: "patrol", Image: im}); err != nil {
						failed.Add(1)
						continue
					}
					local = append(local, float64(time.Since(t0).Microseconds()))
				}
				mu.Lock()
				lats = append(lats, local...)
				mu.Unlock()
			})
			b.StopTimer()
			if n := failed.Load(); n != 0 {
				b.Fatalf("%d requests failed", n)
			}
			if len(lats) == 0 {
				return
			}
			sort.Float64s(lats)
			b.ReportMetric(lats[len(lats)/2], "p50-µs")
			b.ReportMetric(lats[len(lats)*99/100], "p99-µs")
		})
	}
}
