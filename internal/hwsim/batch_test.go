package hwsim

import (
	"math"
	"testing"

	"itask/internal/vit"
)

func batchTestModel() vit.Config {
	return vit.Config{
		ImageSize: 32, Channels: 3, PatchSize: 8,
		Dim: 48, Depth: 3, Heads: 4, MLPRatio: 2, Classes: 12,
	}
}

// Batch 1 must reproduce the single-image simulation exactly: a batch of
// one is SimulateAccel.
func TestAccelBatchOneMatchesSingle(t *testing.T) {
	accel := DefaultAccel()
	model := batchTestModel()
	single := SimulateAccel(accel, model)
	b1 := SimulateAccelBatch(accel, model, 1)
	if math.Abs(single.LatencyUS-b1.LatencyUS) > 1e-9*single.LatencyUS {
		t.Errorf("batch-1 latency %.6f != single %.6f", b1.LatencyUS, single.LatencyUS)
	}
	if math.Abs(single.TotalUJ-b1.TotalUJ) > 1e-9*single.TotalUJ {
		t.Errorf("batch-1 energy %.6f != single %.6f", b1.TotalUJ, single.TotalUJ)
	}
}

// Weight-stationary amortization: per-image latency must strictly improve
// as the batch grows, and utilization must not degrade.
func TestAccelBatchAmortizes(t *testing.T) {
	accel := DefaultAccel()
	model := batchTestModel()
	prev := SimulateAccelBatch(accel, model, 1)
	for _, b := range []int{2, 4, 8, 16} {
		rep := SimulateAccelBatch(accel, model, b)
		if rep.LatencyUS >= prev.LatencyUS {
			t.Errorf("batch %d per-image latency %.2fus did not improve on %.2fus", b, rep.LatencyUS, prev.LatencyUS)
		}
		if rep.MeanUtilization < prev.MeanUtilization {
			t.Errorf("batch %d utilization %.3f below %.3f", b, rep.MeanUtilization, prev.MeanUtilization)
		}
		prev = rep
	}
	// The headline claim behind the serving layer: batch >= 4 beats
	// single-image execution by a clear margin on this design point.
	b4 := SimulateAccelBatch(accel, model, 4)
	b1 := SimulateAccelBatch(accel, model, 1)
	if speedup := b1.LatencyUS / b4.LatencyUS; speedup < 1.2 {
		t.Errorf("batch-4 speedup %.2fx, want >= 1.2x", speedup)
	}
}

func TestAccelBatchRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for batch 0")
		}
	}()
	SimulateAccelBatch(DefaultAccel(), batchTestModel(), 0)
}
