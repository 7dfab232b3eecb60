package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"itask"
	"itask/internal/scene"
	"itask/internal/serve"
	"itask/internal/tensor"
	"itask/internal/wire"
)

// slowBackend is the pipeline's backend with every fifth frame (by content)
// slowed past the watchdog before it runs: the server abandons that
// execution with a 504 while it goes on to read the frame's pixels.
type slowBackend struct {
	serve.Backend
	sleep time.Duration
}

func (b slowBackend) DetectBatch(variant, task string, imgs []*tensor.Tensor) ([]any, string, error) {
	if int(math.Abs(float64(imgs[0].Data[1]))*1e4)%5 == 0 {
		time.Sleep(b.sleep)
	}
	return b.Backend.DetectBatch(variant, task, imgs)
}

// TestReleasedPixelsAreNeverRead drives the detect door under concurrent
// load that mixes executions, coalesced duplicates, cache hits, watchdog
// abandonments, expired deadlines and cancelled requests, with every
// released image overwritten with NaN as it goes back to the pool. No
// served answer may differ from Pipeline.Detect on a private copy of its
// frame: a server goroutine still reading pixels the door had released
// would read NaN, or another request's frame decoded into the same buffer
// (and under -race, the poisoning races with it).
func TestReleasedPixelsAreNeverRead(t *testing.T) {
	o := itask.DefaultOptions()
	o.TrainSamplesPerTask, o.TrainCfg.Epochs = 8, 1
	o.DistillSamples, o.DistillCfg.Train.Epochs = 8, 1
	pipe := itask.New(o)
	if err := pipe.TrainGeneralist(nil); err != nil {
		t.Fatal(err)
	}
	for _, task := range []struct{ name, mission string }{
		{"patrol", "Detect cars, trucks, pedestrians, cyclists and cones on the road"},
		{"harvest", "Find ripe apples and oranges on the trees"},
	} {
		if err := pipe.DefineTask(task.name, task.mission); err != nil {
			t.Fatal(err)
		}
	}
	if err := pipe.DistillStudent("patrol", scene.Driving); err != nil {
		t.Fatal(err)
	}

	backend := slowBackend{Backend: pipe.ServeBackend(), sleep: 60 * time.Millisecond}
	cfg := serve.DefaultConfig()
	cfg.Watchdog = 20 * time.Millisecond
	cfg.BreakerThreshold = 0 // abandonments must not degrade the tasks
	srv, err := serve.New(backend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	h := &handler{pipe: pipe, srv: srv, backend: backend, imageSize: o.TeacherCfg.ImageSize}

	defer func(orig func(*wire.DetectBody)) { releasePixels = orig }(releasePixels)
	releasePixels = func(dr *wire.DetectBody) {
		for i := range dr.Image.Data {
			dr.Image.Data[i] = float32(math.NaN())
		}
		dr.Release()
	}

	// Frames, their bodies in both encodings, and each task's answer on a
	// private copy.
	const frames = 16
	tasks := []string{"patrol", "harvest"}
	type frameCase struct {
		bodies [2][2][]byte // [task][json, binary]
		want   [2][]byte    // [task] the detections' JSON
	}
	cases := make([]frameCase, frames)
	for i := range cases {
		dom := []scene.DomainID{scene.Driving, scene.Orchard}[i%2]
		img := scene.Generate(scene.GetDomain(dom), scene.DefaultGenConfig(), tensor.NewRNG(uint64(300+i))).Image
		for ti, task := range tasks {
			alone, _, err := pipe.Detect(task, img.Clone())
			if err != nil {
				t.Fatal(err)
			}
			cases[i].want[ti] = detectionsJSON(t, alone)
			js, err := json.Marshal(map[string]any{"task": task, "image": map[string]any{"shape": img.Shape, "data": img.Data}})
			if err != nil {
				t.Fatal(err)
			}
			cases[i].bodies[ti] = [2][]byte{js, wire.AppendFrame(nil, task, "", 0, [3]int{3, 32, 32}, img.Data)}
		}
	}

	var mu sync.Mutex
	codes := map[int]int{}
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for i := range cases {
			for dup := 0; dup < 3; dup++ { // concurrent duplicates coalesce or hit the cache
				wg.Add(1)
				go func(i, ti, enc, dup int) {
					defer wg.Done()
					contentType := "application/json"
					if enc == 1 {
						contentType = wire.ContentType
					}
					req := httptest.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(cases[i].bodies[ti][enc]))
					req.Header.Set("Content-Type", contentType)
					if dup == 2 && i%3 == 0 { // a client that gives up early
						ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%4)*100*time.Microsecond)
						defer cancel()
						req = req.WithContext(ctx)
					}
					rec := httptest.NewRecorder()
					h.detect(rec, req)
					mu.Lock()
					codes[rec.Code]++
					mu.Unlock()
					if rec.Code != http.StatusOK {
						return
					}
					var resp struct {
						Detections []itask.Detection `json:"detections"`
					}
					if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
						t.Errorf("frame %d %s: %v", i, tasks[ti], err)
						return
					}
					if got := detectionsJSON(t, resp.Detections); !reflect.DeepEqual(got, cases[i].want[ti]) {
						t.Errorf("frame %d %s (%s): served %s, alone %s", i, tasks[ti], contentType, got, cases[i].want[ti])
					}
				}(i, (i+round)%2, (i+dup+round)%2, dup)
			}
		}
	}
	wg.Wait()

	snap := srv.Snapshot()
	t.Logf("status codes %v; watchdog %d, coalesced %d, cache hits %d, shed %d+%d",
		codes, snap.WatchdogTimeouts, snap.Coalesced, snap.ResultCacheHits, snap.ShedCancelled, snap.ShedExpired)
	if codes[http.StatusOK] == 0 || snap.WatchdogTimeouts == 0 || snap.Coalesced+snap.ResultCacheHits == 0 {
		t.Fatalf("the load missed a path: codes %v, watchdog %d, coalesced %d, cache hits %d",
			codes, snap.WatchdogTimeouts, snap.Coalesced, snap.ResultCacheHits)
	}
}

// detectionsJSON is how the door encodes a detection list.
func detectionsJSON(t *testing.T, dets []itask.Detection) []byte {
	t.Helper()
	if dets == nil {
		dets = []itask.Detection{}
	}
	b, err := json.Marshal(dets)
	if err != nil {
		t.Fatal(fmt.Errorf("detections: %w", err))
	}
	return b
}
