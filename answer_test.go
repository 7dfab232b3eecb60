package itask

import (
	"testing"

	"itask/internal/scene"
	"itask/internal/tensor"
	"itask/internal/testutil"
)

// answerFrames are distinct frames of a domain, so a measurement never
// repeats one.
func answerFrames(domain scene.DomainID, n int) []*tensor.Tensor {
	imgs := make([]*tensor.Tensor, n)
	for i := range imgs {
		imgs[i] = scene.Generate(scene.GetDomain(domain), scene.DefaultGenConfig(), tensor.NewRNG(uint64(500+i))).Image
	}
	return imgs
}

// TestDetectAllocatesOnlyItsAnswer: a warm detect at batch 1, on the int8
// generalist and on a float student, allocates its answer and nothing
// else — the detection lists at the two layers that build them (the model's
// boxes after NMS, the pipeline's detections after the priors) and the
// slices holding one list per image, at most 4 objects and well under the
// 12 KiB of one image's pixels. Patches, features, head output and decode
// scratch all live in the inference workspace. (Under -race the workspace
// pool drops a quarter of its puts, so the pins are off.)
func TestDetectAllocatesOnlyItsAnswer(t *testing.T) {
	p := trainedPipeline(t)
	const generalistTask = "answer-only"
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
		variant, err := p.ServeBackend().Route(c.task)
		if err != nil {
			t.Fatal(err)
		}
		imgs := answerFrames(c.domain, 16)
		found, i := 0, 0
		for _, procs := range []int{1, 2} {
			objects, bytes := testutil.MemPerRunAt(procs, 64, func() {
				dets, info, err := p.DetectBatchOn(variant, c.task, imgs[i%len(imgs):i%len(imgs)+1])
				if err != nil || info.Kind != c.kind {
					t.Fatalf("%s: served by %s (%s), want %s: %v", c.task, info.Name, info.Kind, c.kind, err)
				}
				found += len(dets[0])
				i++
			})
			t.Logf("GOMAXPROCS=%d %s b1: %.0f objects, %.0f bytes per detect", procs, c.kind, objects, bytes)
			if !testutil.Race && (objects > 4 || bytes > 4096) {
				t.Errorf("GOMAXPROCS=%d %s b1: a detect allocates %.0f objects and %.0f bytes, want its answer only (<= 4 objects, <= 4096 bytes)",
					procs, c.kind, objects, bytes)
			}
		}
		if found == 0 {
			t.Fatalf("%s: no detections, so no answer was allocated", c.task)
		}
	}
}

// TestServedOrderIsTheNMSOrder pins the order of a served answer: the
// model's boxes as NMS returns them, in descending score with ties in token
// order, minus the classes the task's priors drop — no re-sort after the
// filter.
func TestServedOrderIsTheNMSOrder(t *testing.T) {
	p := trainedPipeline(t)
	const generalistTask = "nms-order"
	if _, err := p.Priors(generalistTask); err != nil {
		if err := p.DefineTask(generalistTask, "Locate lesions, instruments and vials"); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		task   string
		domain scene.DomainID
	}{{generalistTask, scene.Medical}, {"patrol", scene.Driving}} {
		ts, _ := p.task(c.task)
		variant, err := p.ServeBackend().Route(c.task)
		if err != nil {
			t.Fatal(err)
		}
		compared := 0
		for i, img := range answerFrames(c.domain, 24) {
			raw, _, err := p.scheduler.DetectBatchOn(variant, []*tensor.Tensor{img})
			if err != nil {
				t.Fatal(err)
			}
			dets, _, err := p.Detect(c.task, img)
			if err != nil {
				t.Fatal(err)
			}
			k := 0
			for _, r := range raw[0] {
				if ts.priors[r.Class] < p.opts.PriorThreshold {
					continue
				}
				if k >= len(dets) || dets[k].ClassID != r.Class || dets[k].Score != r.Score || dets[k].Box != r.Box {
					t.Fatalf("%s frame %d: served detection %d is not NMS's next kept box %+v: %+v", c.task, i, k, r, dets)
				}
				k++
			}
			if k != len(dets) {
				t.Fatalf("%s frame %d: %d served detections, NMS kept %d of the task's classes", c.task, i, len(dets), k)
			}
			for j := 1; j < len(dets); j++ {
				if dets[j].Score > dets[j-1].Score {
					t.Fatalf("%s frame %d: score rises at %d: %+v", c.task, i, j, dets)
				}
			}
			compared += len(dets)
		}
		if compared < 2 {
			t.Fatalf("%s: %d detections compared, too few to pin an order", c.task, compared)
		}
	}
}
