package itask

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"itask/internal/chaos"
	"itask/internal/dataset"
	"itask/internal/eval"
	"itask/internal/geom"
	"itask/internal/hwsim"
	"itask/internal/registry"
	"itask/internal/scene"
	"itask/internal/serve"
	"itask/internal/tensor"
	"itask/internal/vit"
)

// fastOptions shrinks training so the integration tests run in seconds.
func fastOptions() Options {
	o := DefaultOptions()
	o.TrainSamplesPerTask = 40
	o.TrainCfg.Epochs = 14
	o.DistillSamples = 64
	o.DistillCfg.Train.Epochs = 14
	return o
}

// sharedPipe builds one trained pipeline reused by the integration tests
// (training is the expensive part; the tests only read).
var (
	sharedPipeOnce sync.Once
	sharedPipe     *Pipeline
	sharedPipeErr  error
)

func trainedPipeline(t *testing.T) *Pipeline {
	t.Helper()
	sharedPipeOnce.Do(func() {
		p := New(fastOptions())
		if err := p.TrainGeneralist(nil); err != nil {
			sharedPipeErr = err
			return
		}
		if err := p.DefineTask("patrol", "Detect cars, trucks, pedestrians, cyclists and cones on the road"); err != nil {
			sharedPipeErr = err
			return
		}
		if err := p.DistillStudent("patrol", scene.Driving); err != nil {
			sharedPipeErr = err
			return
		}
		sharedPipe = p
	})
	if sharedPipeErr != nil {
		t.Fatal(sharedPipeErr)
	}
	return sharedPipe
}

func TestPipelineLifecycleErrors(t *testing.T) {
	p := New(fastOptions())
	if _, _, err := p.Detect("x", tensor.New(3, 32, 32)); err == nil {
		t.Error("detect before task definition should fail")
	}
	if err := p.DefineTask("", "detect cars"); err == nil {
		t.Error("empty task name should fail")
	}
	if err := p.DefineTask("bad", "lorem ipsum dolor"); err == nil {
		t.Error("unintelligible mission should fail")
	}
	if err := p.DefineTask("t", "detect cars"); err != nil {
		t.Fatal(err)
	}
	if err := p.DefineTask("t", "detect cars"); err == nil {
		t.Error("duplicate task should fail")
	}
	if err := p.DistillStudent("t", scene.Driving); err == nil {
		t.Error("distill before generalist should fail")
	}
	if _, _, err := p.Detect("t", tensor.New(3, 32, 32)); err == nil {
		t.Error("detect before generalist training should fail")
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	p := trainedPipeline(t)

	// Graph and priors exist and favour driving classes.
	priors, err := p.Priors("patrol")
	if err != nil {
		t.Fatal(err)
	}
	if priors[scene.Car] < 0.5 {
		t.Errorf("car prior = %v", priors[scene.Car])
	}
	g, err := p.Graph("patrol")
	if err != nil || g.NumNodes() == 0 {
		t.Fatalf("graph missing: %v", err)
	}

	// Detection on a driving scene via the task-specific student.
	sc := scene.Generate(scene.GetDomain(scene.Driving), scene.DefaultGenConfig(), tensor.NewRNG(99))
	dets, info, err := p.Detect("patrol", sc.Image)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != "task-specific" {
		t.Errorf("expected student to serve patrol, got %s (%s)", info.Name, info.Kind)
	}
	if info.LatencyUS <= 0 || info.EnergyUJ <= 0 {
		t.Errorf("hardware cost missing: %+v", info)
	}
	for _, d := range dets {
		if d.Relevance < fastOptions().PriorThreshold {
			t.Errorf("irrelevant class %s leaked through prior filter", d.Class)
		}
		if d.Class == "" || d.Score <= 0 {
			t.Errorf("malformed detection %+v", d)
		}
	}

	// An undefined-but-described task is served by the generalist.
	if err := p.DefineTask("triage", "Locate lesions, instruments and vials"); err != nil {
		t.Fatal(err)
	}
	med := scene.Generate(scene.GetDomain(scene.Medical), scene.DefaultGenConfig(), tensor.NewRNG(7))
	_, info2, err := p.Detect("triage", med.Image)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Kind != "generalist" {
		t.Errorf("triage should fall back to generalist, got %s", info2.Kind)
	}
}

func TestPipelineDetectionQuality(t *testing.T) {
	p := trainedPipeline(t)
	task, _ := dataset.TaskByName("patrol")
	val := dataset.Build(task, 20, scene.DefaultGenConfig(), tensor.NewRNG(123))
	th := eval.DefaultThresholds()
	// Wrap the pipeline as an eval.DetectFunc.
	df := func(img *tensor.Tensor) []geom.Scored {
		dets, _, err := p.Detect("patrol", img)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]geom.Scored, len(dets))
		for i, d := range dets {
			out[i] = geom.Scored{Box: d.Box, Class: d.ClassID, Score: d.Score}
		}
		return out
	}
	summary := eval.Run(df, val, dataset.ClassInts(task.Classes), th)
	if summary.Accuracy < 0.2 {
		t.Errorf("end-to-end patrol accuracy %v too low", summary.Accuracy)
	}
}

func TestSchedulerStatsExposed(t *testing.T) {
	p := trainedPipeline(t)
	sc := scene.Generate(scene.GetDomain(scene.Driving), scene.DefaultGenConfig(), tensor.NewRNG(5))
	if _, _, err := p.Detect("patrol", sc.Image); err != nil {
		t.Fatal(err)
	}
	st := p.SchedulerStats()
	if st.Hits+st.Misses == 0 {
		t.Error("scheduler stats should record activity")
	}
}

func TestLoadGeneralistAndStudentFromCheckpoint(t *testing.T) {
	src := trainedPipeline(t)
	dir := t.TempDir()
	if err := src.Teacher().SaveFile(dir + "/teacher.ckpt"); err != nil {
		t.Fatal(err)
	}
	if err := src.Student("patrol").SaveFile(dir + "/student.ckpt"); err != nil {
		t.Fatal(err)
	}

	p := New(fastOptions())
	if err := p.LoadGeneralist(dir + "/teacher.ckpt"); err != nil {
		t.Fatal(err)
	}
	if err := p.LoadGeneralist(dir + "/teacher.ckpt"); err == nil {
		t.Error("double load should fail")
	}
	if err := p.DefineTask("patrol", "Detect cars, trucks, pedestrians, cyclists and cones"); err != nil {
		t.Fatal(err)
	}
	if err := p.LoadStudent("patrol", dir+"/student.ckpt"); err != nil {
		t.Fatal(err)
	}
	sc := scene.Generate(scene.GetDomain(scene.Driving), scene.DefaultGenConfig(), tensor.NewRNG(9))
	_, info, err := p.Detect("patrol", sc.Image)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != "task-specific" {
		t.Errorf("loaded student should serve, got %s", info.Kind)
	}
	// Error paths.
	if err := p.LoadStudent("nope", dir+"/student.ckpt"); err == nil {
		t.Error("undefined task should fail")
	}
	// Re-loading a student is a hot swap: it publishes the next version of
	// the task's artifact and routes it atomically.
	if err := p.LoadStudent("patrol", dir+"/student.ckpt"); err != nil {
		t.Errorf("student reload should publish a new version: %v", err)
	}
	if _, info, err := p.Detect("patrol", sc.Image); err != nil {
		t.Fatal(err)
	} else if id, perr := registry.ParseID(info.Artifact); perr != nil || id.Version != 2 {
		t.Errorf("after reload: served %q, want version 2", info.Artifact)
	}
	fresh := New(fastOptions())
	if err := fresh.LoadGeneralist(dir + "/missing.ckpt"); err == nil {
		t.Error("missing checkpoint should fail")
	}
}

// TestGeneralistChecksumNamesTheTeacher: the generalist is quantized in
// process, and its registry checksum is derived from the teacher's and the
// scheme. Two pipelines that load the same teacher.ckpt publish the same
// generalist checksum and the same snapshot identity, so a fleet of shards
// that loaded it agrees on one route epoch; another teacher moves both.
func TestGeneralistChecksumNamesTheTeacher(t *testing.T) {
	opts := DefaultOptions()
	dir := t.TempDir()
	for i, name := range []string{"teacher.ckpt", "other.ckpt"} {
		if err := vit.New(opts.TeacherCfg, tensor.NewRNG(uint64(i+1))).SaveFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	load := func(name string) (sum string, identity uint64) {
		t.Helper()
		p := New(opts)
		if err := p.LoadGeneralist(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
		snap := p.Registry().Snapshot()
		g, ok := snap.Generalist()
		if !ok {
			t.Fatal("no generalist published")
		}
		return g.Checksum, snap.Identity()
	}
	sum, id := load("teacher.ckpt")
	if sum2, id2 := load("teacher.ckpt"); sum2 != sum || id2 != id {
		t.Errorf("the same teacher published generalist %s and identity %x, then %s and %x", sum, id, sum2, id2)
	}
	if other, otherID := load("other.ckpt"); other == sum || otherID == id {
		t.Errorf("another teacher kept generalist %s (%s) or identity %x (%x)", sum, other, id, otherID)
	}
}

func TestAdaptStudentFewShot(t *testing.T) {
	p := trainedPipeline(t)
	if err := p.DefineTask("harvest", "Find ripe fruit and unripe fruit"); err != nil {
		t.Fatal(err)
	}
	if err := p.AdaptStudent("harvest", scene.Orchard, 4); err != nil {
		t.Fatal(err)
	}
	sc := scene.Generate(scene.GetDomain(scene.Orchard), scene.DefaultGenConfig(), tensor.NewRNG(31))
	_, info, err := p.Detect("harvest", sc.Image)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != "task-specific" {
		t.Errorf("few-shot student should serve harvest, got %s", info.Kind)
	}
	// Re-adapting a task is a hot swap: it publishes the next student
	// version and routes it atomically.
	if err := p.AdaptStudent("harvest", scene.Orchard, 4); err != nil {
		t.Errorf("second adapt should publish a new version: %v", err)
	}
	if _, info2, err := p.Detect("harvest", sc.Image); err != nil {
		t.Fatal(err)
	} else if id, perr := registry.ParseID(info2.Artifact); perr != nil || id.Version != 2 {
		t.Errorf("after re-adapt: served %q, want version 2", info2.Artifact)
	}
	if err := p.AdaptStudent("undefined", scene.Orchard, 4); err == nil {
		t.Error("undefined task should fail")
	}
	if err := p.DefineTask("inspect2", "Inspect for gears and bolts"); err != nil {
		t.Fatal(err)
	}
	if err := p.AdaptStudent("inspect2", scene.Industrial, 0); err == nil {
		t.Error("zero shots should fail")
	}
}

func TestHardwareComparisonShape(t *testing.T) {
	p := New(fastOptions())
	c := p.HardwareComparison()
	if c.SpeedupVsGPU <= 1 {
		t.Errorf("accelerator should beat GPU: %v", c.SpeedupVsGPU)
	}
	if c.EnergyReductionVsGPU <= 0 {
		t.Errorf("accelerator should save energy: %v", c.EnergyReductionVsGPU)
	}
}

// TestAccelCostIsTheSimulation: the cached per-(configuration, batch) cost
// is hwsim's own figure, on the first use and on every later one, from any
// number of goroutines.
func TestAccelCostIsTheSimulation(t *testing.T) {
	p := New(fastOptions())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, batch := range []int{3, 1, 8, 3, 2, 8} {
				for _, student := range []bool{false, true} {
					cfg := p.opts.TeacherCfg
					if student {
						cfg = p.opts.StudentCfg
					}
					want := hwsim.SimulateAccelBatch(p.opts.Accel, cfg, batch)
					if got := p.accelCost(student, batch); got.latencyUS != want.LatencyUS || got.energyUJ != want.TotalUJ {
						t.Errorf("student=%v batch=%d: cached cost %+v, simulation says %v µs %v µJ",
							student, batch, got, want.LatencyUS, want.TotalUJ)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestDetectIsTheBatchOfOne: a single frame is a batch of one. Detect's
// answer (detections and ModelInfo) is DetectBatchOn's on the routed variant
// with that frame alone, for the int8 generalist and for a float student;
// the float student's answer is also that frame's row in a larger batch. No
// such claim is made for int8 in larger batches: its activation ranges are
// taken over the whole batch.
func TestDetectIsTheBatchOfOne(t *testing.T) {
	p := trainedPipeline(t)
	const generalistTask = "batch-of-one"
	if _, err := p.Priors(generalistTask); err != nil {
		if err := p.DefineTask(generalistTask, "Locate lesions, instruments and vials"); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		task, kind string
		domain     scene.DomainID
	}{
		{generalistTask, "generalist", scene.Medical},
		{"patrol", "task-specific", scene.Driving},
	} {
		imgs := make([]*tensor.Tensor, 3)
		for i := range imgs {
			imgs[i] = scene.Generate(scene.GetDomain(c.domain), scene.DefaultGenConfig(), tensor.NewRNG(uint64(40+i))).Image
		}
		variant, err := p.ServeBackend().Route(c.task)
		if err != nil {
			t.Fatal(err)
		}
		found := 0
		for i, img := range imgs {
			dets, info, err := p.Detect(c.task, img)
			if err != nil {
				t.Fatal(err)
			}
			if info.Kind != c.kind {
				t.Fatalf("%s: served by %s (%s), want %s", c.task, info.Name, info.Kind, c.kind)
			}
			one, oneInfo, err := p.DetectBatchOn(variant, c.task, imgs[i:i+1])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dets, one[0]) || !reflect.DeepEqual(info, oneInfo) {
				t.Errorf("%s image %d: Detect = %+v %+v, batch of one = %+v %+v", c.task, i, dets, info, one[0], oneInfo)
			}
			found += len(dets)
		}
		if found == 0 {
			t.Fatalf("%s: no detections on %d scenes, nothing was compared", c.task, len(imgs))
		}
		if c.kind != "task-specific" {
			continue
		}
		batch, _, err := p.DetectBatchOn(variant, c.task, imgs)
		if err != nil {
			t.Fatal(err)
		}
		for i, img := range imgs {
			dets, _, err := p.Detect(c.task, img)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dets, batch[i]) {
				t.Errorf("%s image %d: Detect = %+v, row of a batch of %d = %+v", c.task, i, dets, len(imgs), batch[i])
			}
		}
	}
}

// TestServedAnswerIsTheFrameAlone: what the server answers for a frame does
// not depend on what else was queued with it. Eight distinct frames for the
// int8 generalist and eight for the float student queue together behind a
// parked worker, on the served configuration; once released, every payload
// is byte-identical to Pipeline.Detect on that frame alone, and so is the
// model that served it.
func TestServedAnswerIsTheFrameAlone(t *testing.T) {
	p := trainedPipeline(t)
	const generalistTask = "served-alone"
	if _, err := p.Priors(generalistTask); err != nil {
		if err := p.DefineTask(generalistTask, "Locate lesions, instruments and vials"); err != nil {
			t.Fatal(err)
		}
	}
	b := chaos.Wrap(p.ServeBackend(), chaos.Config{})
	cfg := serve.DefaultConfig()
	cfg.Workers = 1
	srv, err := serve.New(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	frame := func(domain scene.DomainID, seed uint64) *tensor.Tensor {
		return scene.Generate(scene.GetDomain(domain), scene.DefaultGenConfig(), tensor.NewRNG(seed)).Image
	}
	release := b.Park(cfg.Workers, func() {
		if _, err := srv.Submit(serve.Request{Task: "patrol", Image: frame(scene.Driving, 60)}); err != nil {
			t.Fatal(err)
		}
	})
	defer release()

	type queued struct {
		task string
		img  *tensor.Tensor
		out  <-chan serve.Outcome
	}
	const perModel = 8
	var reqs []queued
	for _, c := range []struct {
		task   string
		domain scene.DomainID
	}{{generalistTask, scene.Medical}, {"patrol", scene.Driving}} {
		for i := 0; i < perModel; i++ {
			img := frame(c.domain, uint64(70+i))
			out, err := srv.Submit(serve.Request{Task: c.task, Image: img})
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, queued{c.task, img, out})
		}
	}
	if depth := srv.Snapshot().QueueDepth; depth != len(reqs) {
		t.Fatalf("%d requests queued behind the parked worker, want %d", depth, len(reqs))
	}
	release()

	found := map[string]int{}
	for i, r := range reqs {
		out := <-r.out
		if out.Err != nil {
			t.Fatalf("%s frame %d: %v", r.task, i, out.Err)
		}
		alone, info, err := p.Detect(r.task, r.img)
		if err != nil {
			t.Fatal(err)
		}
		served, err := json.Marshal(out.Res.Payload)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(alone)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(served, want) || out.Res.Model != info.Artifact {
			t.Errorf("%s frame %d: served by %s %s, alone by %s %s", r.task, i, out.Res.Model, served, info.Artifact, want)
		}
		found[info.Kind] += len(alone)
	}
	if found["generalist"] == 0 || found["task-specific"] == 0 {
		t.Fatalf("detections per model kind %v: a model found nothing, so nothing was compared", found)
	}
}
