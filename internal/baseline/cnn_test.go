package baseline

import (
	"testing"

	"itask/internal/dataset"
	"itask/internal/eval"
	"itask/internal/geom"
	"itask/internal/scene"
	"itask/internal/tensor"
	"itask/internal/vit"
)

func TestCNNConfigValidate(t *testing.T) {
	if err := DefaultCNNConfig(14).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []CNNConfig{
		{},
		{ImageSize: 32, Channels: 3, Classes: 14, Width: 16, Grid: 5},
		{ImageSize: 32, Channels: 3, Classes: 14, Width: 16, Grid: 8}, // 4x downsample mismatch
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d passed: %+v", i, c)
		}
	}
}

func TestToCellsRoundTrip(t *testing.T) {
	tc := &toCells{C: 3, Cells: 4}
	x := tensor.New(2, 12)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	y := tc.Forward(x, true)
	if y.Shape[0] != 8 || y.Shape[1] != 3 {
		t.Fatalf("shape %v", y.Shape)
	}
	// Cell 0 of batch 0 should hold channels at positions 0, 4, 8.
	if y.At(0, 0) != 0 || y.At(0, 1) != 4 || y.At(0, 2) != 8 {
		t.Errorf("cell row = %v", y.Row(0).Data)
	}
	// Backward of forward's output recovers the original layout.
	dx := tc.Backward(y)
	if !dx.Equal(x) {
		t.Error("toCells backward is not the inverse permutation")
	}
}

func TestCNNForwardShapes(t *testing.T) {
	cfg := DefaultCNNConfig(int(scene.NumClasses))
	d := NewCNN(cfg, tensor.NewRNG(1))
	img := tensor.Randn(tensor.NewRNG(2), 0.5, 3, 32, 32)
	dets := d.Detect(img, 0.0, 0.5)
	for _, det := range dets {
		if det.Class < 0 || det.Class >= cfg.Classes {
			t.Errorf("class out of range: %+v", det)
		}
	}
	if len(d.Params()) == 0 {
		t.Error("no parameters")
	}
}

func TestCNNTrainValidation(t *testing.T) {
	d := NewCNN(DefaultCNNConfig(14), tensor.NewRNG(1))
	if _, err := d.Train(dataset.Set{}, DefaultTrainConfig()); err == nil {
		t.Error("empty set should fail")
	}
	if _, err := d.Train(dataset.Set{Examples: make([]dataset.Example, 1)}, TrainConfig{}); err == nil {
		t.Error("invalid config should fail")
	}
}

// TestCNNLearnsTask verifies the baseline can actually learn with enough
// data — it is a real comparator, not a strawman.
func TestCNNLearnsTask(t *testing.T) {
	rng := tensor.NewRNG(3)
	task, _ := dataset.TaskByName("inspect")
	gen := scene.DefaultGenConfig()
	gen.MaxObjects = 2
	train := dataset.Build(task, 64, gen, rng)
	val := dataset.Build(task, 24, gen, rng)

	d := NewCNN(DefaultCNNConfig(int(scene.NumClasses)), tensor.NewRNG(4))
	cfg := DefaultTrainConfig()
	cfg.Epochs = 14
	if _, err := d.Train(train, cfg); err != nil {
		t.Fatal(err)
	}
	th := eval.DefaultThresholds()
	df := eval.DetectFunc(func(img *tensor.Tensor) []geom.Scored {
		return d.Detect(img, th.Obj, th.NMSIoU)
	})
	s := eval.Run(df, val, dataset.ClassInts(task.Classes), th)
	if s.Accuracy < 0.2 {
		t.Errorf("trained CNN accuracy %v too low — baseline must be competitive at full data", s.Accuracy)
	}
}

func TestCNNSharesGridEncoding(t *testing.T) {
	// The grid config used by the CNN must produce the same target encoding
	// as the laptop-scale ViT geometry, so metrics are comparable.
	cnnGrid := DefaultCNNConfig(14).gridCfg()
	vitCfg := vit.Config{
		ImageSize: 32, Channels: 3, PatchSize: 8,
		Dim: 32, Depth: 2, Heads: 4, MLPRatio: 2, Classes: 14,
	}
	objs := []vit.Object{{Box: geom.Box{X: 0.3, Y: 0.7, W: 0.2, H: 0.2}, Class: 5}}
	a := vit.EncodeTargets(cnnGrid, objs)
	b := vit.EncodeTargets(vitCfg, objs)
	if len(a.Obj) != len(b.Obj) {
		t.Fatalf("grid mismatch: %d vs %d cells", len(a.Obj), len(b.Obj))
	}
	for i := range a.Obj {
		if a.Obj[i] != b.Obj[i] || a.Class[i] != b.Class[i] {
			t.Fatal("target encodings differ between CNN and ViT grids")
		}
	}
}
