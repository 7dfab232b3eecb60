// Package distill implements iTask's model-production pipeline: supervised
// training of the multi-task teacher, teacher→student knowledge distillation
// for the task-specific configuration, and knowledge-graph-guided few-shot
// adaptation. All training is deterministic from the config seed.
package distill

import (
	"fmt"
	"io"

	"itask/internal/dataset"
	"itask/internal/nn"
	"itask/internal/tensor"
	"itask/internal/vit"
)

// TrainConfig controls a supervised training run.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float32
	// FloorLR is the cosine schedule's final learning rate.
	FloorLR float32
	// WarmupSteps is the linear LR warmup length.
	WarmupSteps int
	// WeightDecay is AdamW decoupled decay.
	WeightDecay float32
	// ClipNorm caps the global gradient norm (0 disables clipping).
	ClipNorm float32
	// DetWeights balances the detection loss terms.
	DetWeights vit.DetLossWeights
	// ClsWeight scales the auxiliary scene-classification loss.
	ClsWeight float32
	// Seed drives batch shuffling.
	Seed uint64
	// Augment, when true, doubles the training set with horizontal flips
	// before training (label-exact for the synthetic vocabulary).
	Augment bool
	// Log, when non-nil, receives one line per epoch.
	Log io.Writer
}

// DefaultTrainConfig returns the settings used for teachers and students in
// the experiments.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs:      20,
		BatchSize:   8,
		LR:          3e-3,
		FloorLR:     3e-4,
		WarmupSteps: 20,
		WeightDecay: 1e-4,
		ClipNorm:    5,
		DetWeights:  vit.DefaultDetLossWeights(),
		ClsWeight:   0.2,
		Seed:        1,
	}
}

// Validate checks the configuration.
func (c TrainConfig) Validate() error {
	switch {
	case c.Epochs <= 0:
		return fmt.Errorf("distill: epochs %d", c.Epochs)
	case c.BatchSize <= 0:
		return fmt.Errorf("distill: batch size %d", c.BatchSize)
	case c.LR <= 0:
		return fmt.Errorf("distill: lr %v", c.LR)
	}
	return nil
}

// Report summarizes a training run.
type Report struct {
	EpochLoss []float32
	Steps     int
}

// Train runs supervised detection training of m on set.
func Train(m *vit.Model, set dataset.Set, cfg TrainConfig) (Report, error) {
	if err := cfg.Validate(); err != nil {
		return Report{}, err
	}
	if set.Len() == 0 {
		return Report{}, fmt.Errorf("distill: empty dataset")
	}
	if cfg.Augment {
		set = dataset.Augment(set)
	}
	rng := tensor.NewRNG(cfg.Seed)
	opt := nn.NewAdamW(cfg.LR, cfg.WeightDecay)
	stepsPerEpoch := (set.Len() + cfg.BatchSize - 1) / cfg.BatchSize
	total := stepsPerEpoch * cfg.Epochs
	var rep Report
	step := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var epochLoss float64
		batches := set.Batches(cfg.BatchSize, rng)
		for _, batch := range batches {
			opt.SetLR(nn.CosineSchedule(cfg.LR, cfg.FloorLR, cfg.WarmupSteps, total, step))
			loss := trainStep(m, batch, cfg, opt)
			epochLoss += float64(loss)
			step++
		}
		mean := float32(epochLoss / float64(len(batches)))
		rep.EpochLoss = append(rep.EpochLoss, mean)
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "epoch %3d  loss %.4f  lr %.5f\n", epoch, mean, opt.LR())
		}
	}
	rep.Steps = step
	return rep, nil
}

// trainStep runs one optimizer step on one minibatch and returns its loss.
func trainStep(m *vit.Model, examples []dataset.Example, cfg TrainConfig, opt nn.Optimizer) float32 {
	b := dataset.Pack(m.Cfg, examples)
	feats := m.Forward(b.Patches, true)
	det := m.DetHead(feats, true)
	loss, dDet := vit.DetLoss(m.Cfg, det, b.Targets, cfg.DetWeights)
	var dCls *tensor.Tensor
	if cfg.ClsWeight > 0 {
		cls := m.ClsHead(feats, true)
		clsLoss, g := nn.CrossEntropy(cls, b.SceneLabels)
		loss += cfg.ClsWeight * clsLoss
		g.ScaleInPlace(cfg.ClsWeight)
		dCls = g
	}
	m.Backward(dDet, dCls)
	if cfg.ClipNorm > 0 {
		nn.ClipGradNorm(m.Params(), cfg.ClipNorm)
	}
	opt.Step(m.Params())
	return loss
}
