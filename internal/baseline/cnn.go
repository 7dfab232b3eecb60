// Package baseline implements the "conventional model" the paper's
// introduction argues against: a lightweight CNN detector trained from
// scratch per task, with no teacher, no knowledge graph, and no task
// conditioning. It shares the detection-grid encoding with the ViT so both
// are scored by exactly the same metrics, and exists to quantify the
// abstract's motivating claim that conventional models "requir[e] vast
// datasets" compared to iTask's few-shot pipeline (experiment E9).
package baseline

import (
	"fmt"

	"itask/internal/dataset"
	"itask/internal/geom"
	"itask/internal/nn"
	"itask/internal/tensor"
	"itask/internal/vit"
)

// CNNConfig describes the baseline detector.
type CNNConfig struct {
	ImageSize int
	Channels  int
	Classes   int
	// Width is the first conv's channel count; later stages double it.
	Width int
	// Grid is the detection grid edge (head cells per side); ImageSize
	// must be divisible by it and the conv trunk downsamples to exactly it.
	Grid int
}

// DefaultCNNConfig matches the laptop-scale ViT geometry (32px, 4×4 grid).
func DefaultCNNConfig(classes int) CNNConfig {
	return CNNConfig{ImageSize: 32, Channels: 3, Classes: classes, Width: 16, Grid: 4}
}

// Validate checks the configuration.
func (c CNNConfig) Validate() error {
	switch {
	case c.ImageSize <= 0 || c.Channels <= 0 || c.Classes <= 0 || c.Width <= 0 || c.Grid <= 0:
		return fmt.Errorf("baseline: non-positive field in %+v", c)
	case c.ImageSize%c.Grid != 0:
		return fmt.Errorf("baseline: image %d not divisible by grid %d", c.ImageSize, c.Grid)
	case c.ImageSize/c.Grid != 8:
		// The trunk has three stride-2 pools: 8x downsampling.
		return fmt.Errorf("baseline: trunk downsamples 8x; image/grid must be 8, got %d", c.ImageSize/c.Grid)
	}
	return nil
}

// gridCfg returns a vit.Config carrying only the detection-grid geometry,
// so the CNN reuses vit.EncodeTargets / vit.DetLoss / vit.Decode verbatim.
// The transformer-only fields are placeholder-valid and never used.
func (c CNNConfig) gridCfg() vit.Config {
	return vit.Config{
		ImageSize: c.ImageSize, Channels: c.Channels,
		PatchSize: c.ImageSize / c.Grid,
		Dim:       8, Depth: 1, Heads: 1, MLPRatio: 1,
		Classes: c.Classes,
	}
}

// toCells reorders a channel-major feature map batch (B, C*G*G) into
// per-cell rows (B*G*G, C) and back — the bridge between conv trunk and the
// shared per-cell detection head.
type toCells struct {
	C, Cells int
	batch    int
}

func (t *toCells) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	b := x.Shape[0]
	if x.Shape[1] != t.C*t.Cells {
		panic(fmt.Sprintf("baseline: toCells width %d, want %d", x.Shape[1], t.C*t.Cells))
	}
	if train {
		t.batch = b
	}
	out := tensor.New(b*t.Cells, t.C)
	for bi := 0; bi < b; bi++ {
		in := x.Data[bi*t.C*t.Cells:]
		for cell := 0; cell < t.Cells; cell++ {
			row := out.Data[(bi*t.Cells+cell)*t.C:]
			for ch := 0; ch < t.C; ch++ {
				row[ch] = in[ch*t.Cells+cell]
			}
		}
	}
	return out
}

func (t *toCells) Backward(dy *tensor.Tensor) *tensor.Tensor {
	b := t.batch
	dx := tensor.New(b, t.C*t.Cells)
	for bi := 0; bi < b; bi++ {
		out := dx.Data[bi*t.C*t.Cells:]
		for cell := 0; cell < t.Cells; cell++ {
			row := dy.Data[(bi*t.Cells+cell)*t.C:]
			for ch := 0; ch < t.C; ch++ {
				out[ch*t.Cells+cell] = row[ch]
			}
		}
	}
	return dx
}

func (t *toCells) Params() []*nn.Param { return nil }

// CNNDetector is the conventional baseline: three conv/pool stages and a
// per-cell detection head.
type CNNDetector struct {
	Cfg CNNConfig
	net *nn.Sequential
}

// NewCNN builds the detector with fresh weights.
func NewCNN(cfg CNNConfig, rng *tensor.RNG) *CNNDetector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := cfg.ImageSize
	w := cfg.Width
	conv1 := nn.NewConv2D("conv1", cfg.Channels, w, 3, 1, s, s, rng)
	pool1 := nn.NewMaxPool2D(w, s, s)
	conv2 := nn.NewConv2D("conv2", w, 2*w, 3, 1, s/2, s/2, rng)
	pool2 := nn.NewMaxPool2D(2*w, s/2, s/2)
	conv3 := nn.NewConv2D("conv3", 2*w, 2*w, 3, 1, s/4, s/4, rng)
	pool3 := nn.NewMaxPool2D(2*w, s/4, s/4)
	cells := cfg.Grid * cfg.Grid
	head := nn.NewLinear("det_head", 2*w, 5+cfg.Classes, rng)
	return &CNNDetector{
		Cfg: cfg,
		net: nn.NewSequential(
			conv1, nn.NewReLU(), pool1,
			conv2, nn.NewReLU(), pool2,
			conv3, nn.NewReLU(), pool3,
			&toCells{C: 2 * w, Cells: cells},
			head,
		),
	}
}

// Params returns all trainable parameters.
func (d *CNNDetector) Params() []*nn.Param { return d.net.Params() }

// forwardImages flattens (C,H,W) images into the batch-row layout.
func (d *CNNDetector) forwardImages(images []*tensor.Tensor, train bool) *tensor.Tensor {
	w := d.Cfg.Channels * d.Cfg.ImageSize * d.Cfg.ImageSize
	x := tensor.New(len(images), w)
	for i, img := range images {
		if img.Size() != w {
			panic(fmt.Sprintf("baseline: image %d has %d values, want %d", i, img.Size(), w))
		}
		copy(x.Data[i*w:(i+1)*w], img.Data)
	}
	return d.net.Forward(x, train)
}

// TrainConfig controls baseline training.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float32
	Seed      uint64
}

// DefaultTrainConfig mirrors the ViT training budget.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 16, BatchSize: 8, LR: 2e-3, Seed: 1}
}

// Train fits the detector on the set with plain supervised detection loss —
// the conventional recipe, no teacher and no priors.
func (d *CNNDetector) Train(set dataset.Set, cfg TrainConfig) (float32, error) {
	if set.Len() == 0 {
		return 0, fmt.Errorf("baseline: empty dataset")
	}
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 || cfg.LR <= 0 {
		return 0, fmt.Errorf("baseline: invalid train config %+v", cfg)
	}
	rng := tensor.NewRNG(cfg.Seed)
	opt := nn.NewAdam(cfg.LR)
	gcfg := d.Cfg.gridCfg()
	weights := vit.DefaultDetLossWeights()
	var last float32
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var epochLoss float64
		batches := set.Batches(cfg.BatchSize, rng)
		for _, batch := range batches {
			images := make([]*tensor.Tensor, len(batch))
			targets := make([]vit.DetTarget, len(batch))
			for i, ex := range batch {
				images[i] = ex.Image
				targets[i] = vit.EncodeTargets(gcfg, ex.Objects)
			}
			out := d.forwardImages(images, true)
			loss, grad := vit.DetLoss(gcfg, out, targets, weights)
			d.net.Backward(grad)
			nn.ClipGradNorm(d.Params(), 5)
			opt.Step(d.Params())
			epochLoss += float64(loss)
		}
		last = float32(epochLoss / float64(len(batches)))
	}
	return last, nil
}

// Detect runs inference on one image.
func (d *CNNDetector) Detect(img *tensor.Tensor, objThresh, nmsIoU float64) []geom.Scored {
	out := d.forwardImages([]*tensor.Tensor{img}, false)
	return vit.Decode(d.Cfg.gridCfg(), out, objThresh, nmsIoU)
}
