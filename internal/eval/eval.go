// Package eval runs detectors over datasets and reduces the results to the
// metrics the experiments report. A model runs a batch of images in one pass
// (a BatchDetectFunc); the harness scores any detector (float ViT, quantized
// ViT, the whole pipeline) one image at a time through a DetectFunc, which
// for a model is its batch of one.
package eval

import (
	"itask/internal/dataset"
	"itask/internal/geom"
	"itask/internal/metrics"
	"itask/internal/tensor"
	"itask/internal/vit"
)

// DetectFunc maps one (C,H,W) image to scored detections.
type DetectFunc func(img *tensor.Tensor) []geom.Scored

// Thresholds bundles the decode operating point shared by all evaluations.
type Thresholds struct {
	// Obj is the objectness threshold for emitting a detection.
	Obj float64
	// NMSIoU is the IoU above which same-class detections are suppressed.
	NMSIoU float64
	// MatchIoU is the IoU required to count a detection as correct.
	MatchIoU float64
}

// DefaultThresholds returns the operating point used in all experiments.
func DefaultThresholds() Thresholds {
	return Thresholds{Obj: 0.45, NMSIoU: 0.45, MatchIoU: 0.35}
}

// BatchDetectFunc maps a batch of (C,H,W) images to per-image detections.
type BatchDetectFunc func(imgs []*tensor.Tensor) [][]geom.Scored

// BatchDetectorOf wraps a float ViT model as a BatchDetectFunc: vit.Detect
// with the model's float sites, the whole batch in one pass. This is the
// float models' inference entry on the one detect path, where a single frame
// is a batch of one.
func BatchDetectorOf(m *vit.Model, th Thresholds) BatchDetectFunc {
	return func(imgs []*tensor.Tensor) [][]geom.Scored {
		return vit.Detect(m.Cfg, m.Pos.Emb.W, m, imgs, th.Obj, th.NMSIoU)
	}
}

// DetectorOf wraps a float ViT model as a DetectFunc: the batch of one over
// BatchDetectorOf.
func DetectorOf(m *vit.Model, th Thresholds) DetectFunc {
	batch := BatchDetectorOf(m, th)
	return func(img *tensor.Tensor) []geom.Scored {
		return batch([]*tensor.Tensor{img})[0]
	}
}

// Run evaluates a detector over a dataset, restricted to the given class
// set: detections outside the class set are dropped (the task-conditioned
// pipeline never reports irrelevant classes), and the summary is computed at
// th.MatchIoU.
func Run(df DetectFunc, set dataset.Set, classes []int, th Thresholds) metrics.Summary {
	s, _ := RunWithConfusion(df, set, classes, th)
	return s
}

// RunWithConfusion is Run plus a class-agnostic confusion matrix over the
// class set, for error analysis (which classes get mistaken for which).
func RunWithConfusion(df DetectFunc, set dataset.Set, classes []int, th Thresholds) (metrics.Summary, *metrics.Confusion) {
	allowed := map[int]bool{}
	for _, c := range classes {
		allowed[c] = true
	}
	conf := metrics.NewConfusion(classes)
	images := make([]metrics.ImageEval, 0, set.Len())
	for _, ex := range set.Examples {
		dets := df(ex.Image)
		kept := dets[:0]
		for _, d := range dets {
			if allowed[d.Class] {
				kept = append(kept, d)
			}
		}
		gts := dataset.GroundTruths(ex)
		conf.Add(kept, gts, th.MatchIoU)
		images = append(images, metrics.ImageEval{Dets: kept, GTs: gts})
	}
	return metrics.Evaluate(images, classes, th.MatchIoU), conf
}
