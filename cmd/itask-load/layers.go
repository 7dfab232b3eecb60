package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"itask"
	"itask/internal/dataset"
	"itask/internal/fair"
	"itask/internal/gateway"
	"itask/internal/kernels"
	"itask/internal/rcache"
	"itask/internal/tensor"
	"itask/internal/wire"
)

// timeCall returns the median time of one fn call in nanoseconds. Each
// sample times `inner` back-to-back calls, so a call far below the clock's
// resolution is still measured; samples repeat until 50 ms have passed
// (at least 5, at most 201).
func timeCall(inner int, fn func()) float64 {
	fn() // first call pays lazy set-up (pools, page faults), not the layer
	var samples []float64
	deadline := time.Now().Add(50 * time.Millisecond)
	for len(samples) < 5 || (len(samples) < 201 && time.Now().Before(deadline)) {
		start := time.Now()
		for i := 0; i < inner; i++ {
			fn()
		}
		samples = append(samples, float64(time.Since(start).Nanoseconds())/float64(inner))
	}
	return median(samples)
}

// allocsPerCall is the mean number of heap allocations one fn call makes,
// counted process-wide (nothing else allocates while it runs).
func allocsPerCall(n int, fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// noopNode is a gateway member that does nothing, so Gateway.Execute with
// a no-op callback times routing alone.
type noopNode string

func (n noopNode) ID() string { return string(n) }

// callMetrics times each layer's exported functions from the benchmark
// process ("call" metrics). They say what a layer costs on this box with
// nothing contending; the live metrics say what it cost under the workload.
func callMetrics(o *oracle, u *universe) (map[string]float64, error) {
	m := map[string]float64{}
	us := func(ns float64) float64 { return ns / 1e3 }

	// One frame body and its parts, as the doors see them.
	body := append([]byte(nil), u.frames0()...)
	fr, err := wire.ParseFrame(body)
	if err != nil {
		return nil, err
	}
	img := tensor.New(imageShape[:]...)
	m["wire.readall_us"] = us(timeCall(100, func() {
		buf, err := wire.ReadAll(bytes.NewReader(body), len(body))
		if err != nil {
			panic(err) // a bytes.Reader cannot fail
		}
		buf.Release()
	}))
	m["wire.parse_frame_us"] = us(timeCall(100, func() {
		f, _ := wire.ParseFrame(body) // parsed once above
		wire.Float32s(f.Payload, img.Data)
	}))
	m["rcache.digest_us"] = us(timeCall(100, func() { _ = rcache.DigestFrame(fr.Shape[:], fr.Payload) }))
	m["kernels.hash_gbps"] = float64(len(fr.Payload)) / timeCall(100, func() { _ = kernels.HashWordsLE(1, fr.Payload) })

	// A real detect answer, for the encoder and the cache: the fullest one
	// among the first scenes, so the encoder has detections to encode.
	var task string
	var dets []itask.Detection
	for r := 0; r < 16; r++ {
		for _, t := range o.pipe.Tasks() {
			d, _, err := o.pipe.Detect(t, tensor.FromSlice(u.pixels(r), imageShape[:]...))
			if err != nil {
				return nil, err
			}
			if task == "" || len(d) > len(dets) {
				task, dets = t, d
			}
		}
	}
	resp := replayResponse{Task: task, Model: "m@v1#0", BatchSize: 1, Detections: dets}
	sink := discardResponse{h: http.Header{}}
	m["wire.write_json_us"] = us(timeCall(100, func() { wire.WriteJSON(sink, http.StatusOK, resp) }))

	cache := rcache.New(rcache.Config{MaxBytes: 32 << 20, TTL: time.Minute})
	now := time.Now()
	key := rcache.Key{Artifact: "m@v1#0", Task: task, Digest: 1}
	cache.Put(key, dets, now)
	m["rcache.get_hit_ns"] = timeCall(1000, func() { _, _, _ = cache.Get(key, now) })
	var d uint64
	m["rcache.put_us"] = us(timeCall(100, func() { // ≤ 20k inserts: stays inside the byte budget, so no eviction is timed
		d++
		cache.Put(rcache.Key{Artifact: "m@v1#0", Task: task, Digest: d}, dets, now)
	}))

	// The weighted-fair queue with two weighted tenants, as shard_swap runs it.
	q := fair.NewQueue[int](map[string]int{"gold": 4, "free": 1})
	m["fair.pushpop_ns"] = timeCall(1000, func() {
		q.Push("gold", 1)
		q.Push("free", 2)
		_ = q.PopMax(2)
	}) / 2

	// Routing: scheduler, registry, gateway.
	backend := o.pipe.ServeBackend()
	variant, err := backend.Route(task)
	if err != nil {
		return nil, err
	}
	m["sched.route_ns"] = timeCall(1000, func() { _, _ = backend.Route(task) })
	m["registry.resolve_ns"] = timeCall(1000, func() { _, _ = o.pipe.Registry().Snapshot().Resolve(variant) })
	gw, err := gateway.New(gateway.DefaultConfig())
	if err != nil {
		return nil, err
	}
	defer gw.Close()
	for _, id := range []noopNode{"a", "b"} {
		if err := gw.AddNode(id); err != nil {
			return nil, err
		}
	}
	ctx := context.Background()
	noop := func(context.Context, gateway.Node, bool) error { return nil }
	m["gateway.route_ns"] = timeCall(1000, func() {
		d++
		_, _ = gw.Execute(ctx, gateway.Key{Digest: d, HasDigest: true, Task: task}, noop)
	})

	// The two model configurations, per image, alone and in a batch of 8.
	batch := make([]*tensor.Tensor, 8)
	for i := range batch {
		batch[i] = tensor.FromSlice(u.pixels(i), imageShape[:]...)
	}
	var quantTask, vitTask string
	for _, t := range o.pipe.Tasks() {
		switch o.family[t] {
		case itask.GeneralistArtifact(itask.DefaultOptions().Quant.Bits):
			quantTask = t
		case itask.StudentArtifact(t):
			vitTask = t
		}
	}
	for prefix, mtask := range map[string]string{"quant": quantTask, "vit": vitTask} {
		if mtask == "" {
			return nil, fmt.Errorf("no task routes to the %s configuration", prefix)
		}
		mv, err := backend.Route(mtask)
		if err != nil {
			return nil, err
		}
		forward := func(imgs []*tensor.Tensor) func() {
			return func() {
				if _, _, err := o.pipe.DetectBatchOn(mv, mtask, imgs); err != nil {
					panic(err) // the variant was routed a moment ago
				}
			}
		}
		m[prefix+".forward_us_b1"] = us(timeCall(10, forward(batch[:1])))
		m[prefix+".forward_us_b8"] = us(timeCall(3, forward(batch))) / 8
		m[prefix+".allocs_b1"] = allocsPerCall(50, forward(batch[:1]))
	}
	// Computed from the generalist's configuration, not measured.
	m["quant.macs_per_image"] = float64(itask.DefaultOptions().TeacherCfg.TotalMACs())

	// Kernels under the models. 136x48 by 48x96 is the student's MLP at
	// batch 8 (8 images x 17 tokens).
	a, b := tensor.New(136, 48), tensor.New(48, 96)
	out := tensor.New(136, 96)
	m["tensor.matmul_gflops"] = 2 * 136 * 48 * 96 / timeCall(20, func() { tensor.MatMulInto(out, a, b) })
	m["tensor.pool_workers"] = float64(tensor.Workers())
	x, y := make([]int8, 4096), make([]int8, 4096)
	m["kernels.doti8_gops"] = 2 * 4096 / timeCall(1000, func() { _ = kernels.DotI8(x, y) })

	// Set-up and generator costs.
	m["scene.render_us"] = us(timeCall(10, func() { _, _ = itask.GenerateScene(itask.Driving, 7) }))
	fresh := itask.New(itask.DefaultOptions())
	description := dataset.StandardTasks()[0].Description
	var defineErr error
	defined := 0
	m["kg.define_task_ms"] = timeCall(1, func() {
		defined++ // a task may be defined once, so each call defines a new name
		if err := fresh.DefineTask(fmt.Sprintf("bench-%d", defined), description); err != nil {
			defineErr = err
		}
	}) / 1e6
	return m, defineErr
}

// frames0 is one pre-encoded binary frame (scene 0, task 0), built on the
// spot for workloads that post JSON.
func (u *universe) frames0() []byte {
	if u.frames != nil {
		return u.frames[0][0]
	}
	return wire.AppendFrame(nil, u.w.Tasks[0], "", 0, imageShape, u.scenes[0])
}
