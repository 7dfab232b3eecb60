package vit

import (
	"fmt"

	"itask/internal/kernels"
	"itask/internal/nn"
	"itask/internal/tensor"
)

// PosEmbed adds a learned per-token position embedding to a packed
// (B*T, Dim) activation.
type PosEmbed struct {
	Tokens, Dim int
	Emb         *nn.Param
	batch       int
}

// NewPosEmbed creates a position embedding initialized with small noise.
func NewPosEmbed(name string, tokens, dim int, rng *tensor.RNG) *PosEmbed {
	return &PosEmbed{
		Tokens: tokens, Dim: dim,
		Emb: nn.NewParam(name+".pos", tensor.Randn(rng, 0.02, tokens, dim)),
	}
}

// Forward adds the embedding row for each token position.
func (p *PosEmbed) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	rows := x.Shape[0]
	if rows%p.Tokens != 0 {
		panic(fmt.Sprintf("vit: PosEmbed rows %d not multiple of tokens %d", rows, p.Tokens))
	}
	if train {
		p.batch = rows / p.Tokens
	}
	y := x.Clone()
	d := p.Dim
	for i := 0; i < rows; i++ {
		tok := i % p.Tokens
		yr := y.Data[i*d : (i+1)*d]
		er := p.Emb.W.Data[tok*d : (tok+1)*d]
		for j, e := range er {
			yr[j] += e
		}
	}
	return y
}

// Backward accumulates token-position gradients and passes dy through.
func (p *PosEmbed) Backward(dy *tensor.Tensor) *tensor.Tensor {
	rows := dy.Shape[0]
	d := p.Dim
	for i := 0; i < rows; i++ {
		tok := i % p.Tokens
		gr := p.Emb.G.Data[tok*d : (tok+1)*d]
		dr := dy.Data[i*d : (i+1)*d]
		for j, g := range dr {
			gr[j] += g
		}
	}
	return dy
}

// Params returns the embedding parameter.
func (p *PosEmbed) Params() []*nn.Param { return []*nn.Param{p.Emb} }

// Model is the iTask vision transformer. It owns a patch-embedding trunk and
// two heads; see package comment. An inference forward (Forward with train
// false, the heads with train false) only reads the model, so any number of
// goroutines may run it on one Model at once. A training forward caches
// activations on the layers for Backward: training runs on one goroutine,
// with no inference beside it.
type Model struct {
	Cfg   Config
	Embed *nn.Linear
	Pos   *PosEmbed
	Trunk *nn.Sequential // transformer blocks + final norm, the training path
	Det   *nn.Linear     // per-token detection head
	Cls   *nn.Linear     // pooled classification head

	// Blocks and NormF are the trunk's layers by role, the same values
	// Trunk runs.
	Blocks []Block
	NormF  *nn.LayerNorm

	// caches for backward
	feats *tensor.Tensor
	batch int
}

// Block is one transformer block's layers.
type Block struct {
	LN1        *nn.LayerNorm
	Attn       *nn.MultiHeadAttention
	LN2        *nn.LayerNorm
	MLP1, MLP2 *nn.Linear
}

// New builds a model with freshly initialized weights drawn from rng.
func New(cfg Config, rng *tensor.RNG) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Model{
		Cfg:   cfg,
		Embed: nn.NewLinear("embed", cfg.PatchDim(), cfg.Dim, rng),
		Pos:   NewPosEmbed("embed", cfg.Tokens(), cfg.Dim, rng),
		Trunk: nn.NewSequential(),
	}
	for i := 0; i < cfg.Depth; i++ {
		p := fmt.Sprintf("block%d", i)
		b := Block{
			LN1:  nn.NewLayerNorm(p+".ln1", cfg.Dim),
			Attn: nn.NewMultiHeadAttention(p+".attn", cfg.Dim, cfg.Heads, cfg.Tokens(), rng),
			LN2:  nn.NewLayerNorm(p+".ln2", cfg.Dim),
			MLP1: nn.NewLinear(p+".mlp1", cfg.Dim, cfg.MLPRatio*cfg.Dim, rng),
			MLP2: nn.NewLinear(p+".mlp2", cfg.MLPRatio*cfg.Dim, cfg.Dim, rng),
		}
		attn := nn.NewSequential(b.LN1, b.Attn)
		mlp := nn.NewSequential(b.LN2, b.MLP1, nn.NewGELU(), b.MLP2)
		if cfg.Dropout > 0 {
			attn.Append(nn.NewDropout(cfg.Dropout, rng.Split()))
			mlp.Append(nn.NewDropout(cfg.Dropout, rng.Split()))
		}
		m.Trunk.Append(nn.NewResidual(attn), nn.NewResidual(mlp))
		m.Blocks = append(m.Blocks, b)
	}
	m.NormF = nn.NewLayerNorm("norm_f", cfg.Dim)
	m.Trunk.Append(m.NormF)
	m.Det = nn.NewLinear("det_head", cfg.Dim, cfg.DetWidth(), rng)
	m.Cls = nn.NewLinear("cls_head", cfg.Dim, cfg.Classes, rng)
	return m
}

// Forward runs the trunk on packed patches of shape (B*Tokens, PatchDim) and
// returns the token features (B*Tokens, Dim). Call DetHead/ClsHead on the
// result; then Backward with the head gradients. Inference (train false)
// runs the shared trunk, Infer, with the model's float layers at its sites.
func (m *Model) Forward(patches *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		return Infer(m.Cfg, m.Pos.Emb.W, m, patches)
	}
	if patches.Dims() != 2 || patches.Shape[1] != m.Cfg.PatchDim() {
		panic(fmt.Sprintf("vit: Forward wants (B*T,%d) patches, got %v", m.Cfg.PatchDim(), patches.Shape))
	}
	if patches.Shape[0]%m.Cfg.Tokens() != 0 {
		panic(fmt.Sprintf("vit: %d rows not a multiple of %d tokens", patches.Shape[0], m.Cfg.Tokens()))
	}
	x := m.Embed.Forward(patches, true)
	x = m.Pos.Forward(x, true)
	m.feats = m.Trunk.Forward(x, true)
	m.batch = patches.Shape[0] / m.Cfg.Tokens()
	return m.feats
}

// Linear is the float linear site.
func (m *Model) Linear(_ *Workspace, s Site, out, x *tensor.Tensor) {
	l := m.Embed
	switch s.Kind {
	case QKV:
		l = m.Blocks[s.Block].Attn.QKV
	case Proj:
		l = m.Blocks[s.Block].Attn.Proj
	case MLP1:
		l = m.Blocks[s.Block].MLP1
	case MLP2:
		l = m.Blocks[s.Block].MLP2
	case Det:
		l = m.Det
	case Cls:
		l = m.Cls
	}
	gemmLinear(out, x, l)
}

// gemmLinear writes x·Wᵀ + b of l into out (rows, Out) in one GemmF32
// call: every linear layer of the float model's inference, the trunk's
// sites and both heads. Training runs nn.Linear's forward: the same GemmF32
// product, its bias the same one add after it.
func gemmLinear(out, x *tensor.Tensor, l *nn.Linear) {
	if x.Dims() != 2 || x.Shape[1] != l.In || out.Dims() != 2 || out.Shape[0] != x.Shape[0] || out.Shape[1] != l.Out {
		panic(fmt.Sprintf("vit: linear %d->%d on %v into %v", l.In, l.Out, x.Shape, out.Shape))
	}
	var bias []float32
	if l.Bias != nil {
		bias = l.Bias.W.Data
	}
	kernels.GemmF32(out.Data, x.Data, l.Weight.W.Data, bias, x.Shape[0], l.In, l.Out, l.Out, l.In, l.In)
}

// LayerNorm is the float LayerNorm site.
func (m *Model) LayerNorm(s Site, out, x *tensor.Tensor) {
	l := m.NormF
	switch s.Kind {
	case LN1:
		l = m.Blocks[s.Block].LN1
	case LN2:
		l = m.Blocks[s.Block].LN2
	}
	tensor.LayerNormF32Into(out, x, l.Gamma.W.Data, l.Beta.W.Data, l.Eps)
}

// Attend is one float attention head: the score GEMM with q and k read in
// place, the float32 softmax, and the context GEMM against vᵀ written in
// place.
func (m *Model) Attend(_ *Workspace, h Head, scores *tensor.Tensor, scale float32) {
	kernels.GemmF32(scores.Data, h.Q, h.K, nil, h.T, h.DH, h.T, h.T, h.LD, h.LD)
	scores.SoftmaxRowsF32(scale)
	kernels.GemmF32(h.Ctx, scores.Data, h.Vt, nil, h.T, h.T, h.DH, h.LDC, h.T, h.T)
}

// GELU is the float activation site.
func (m *Model) GELU(x *tensor.Tensor) { tensor.GELUF32Into(x, x) }

// DetHead applies the detection head to token features, producing
// (B*Tokens, 5+Classes) raw predictions.
func (m *Model) DetHead(feats *tensor.Tensor, train bool) *tensor.Tensor {
	return m.head(m.Det, feats, train)
}

// ClsHead mean-pools token features per image and applies the classification
// head, producing (B, Classes) logits.
func (m *Model) ClsHead(feats *tensor.Tensor, train bool) *tensor.Tensor {
	return m.head(m.Cls, m.pool(feats), train)
}

// head applies a head layer: its training forward, or the inference GEMM.
func (m *Model) head(l *nn.Linear, x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		return l.Forward(x, true)
	}
	out := tensor.New(x.Shape[0], l.Out)
	gemmLinear(out, x, l)
	return out
}

// PoolFeats mean-pools token features (B*Tokens, Dim) to per-image vectors
// (B, Dim); exposed for feature-matching distillation.
func (m *Model) PoolFeats(feats *tensor.Tensor) *tensor.Tensor { return m.pool(feats) }

// pool mean-pools (B*T, D) to (B, D).
func (m *Model) pool(feats *tensor.Tensor) *tensor.Tensor {
	t := m.Cfg.Tokens()
	b := feats.Shape[0] / t
	d := feats.Shape[1]
	out := tensor.New(b, d)
	inv := float32(1) / float32(t)
	for bi := 0; bi < b; bi++ {
		orow := out.Data[bi*d : (bi+1)*d]
		for ti := 0; ti < t; ti++ {
			frow := feats.Data[(bi*t+ti)*d : (bi*t+ti+1)*d]
			for j, v := range frow {
				orow[j] += v * inv
			}
		}
	}
	return out
}

// Backward propagates head gradients through the trunk. Either gradient may
// be nil if that head was unused this step. dDet has shape
// (B*Tokens, DetWidth); dCls has shape (B, Classes).
func (m *Model) Backward(dDet, dCls *tensor.Tensor) {
	m.BackwardExtra(dDet, dCls, nil)
}

// BackwardExtra is Backward with an additional gradient applied directly to
// the trunk's output features (B*Tokens, Dim) — used by feature-matching
// distillation losses that hook the representation rather than a head.
func (m *Model) BackwardExtra(dDet, dCls, dFeatsExtra *tensor.Tensor) {
	if m.feats == nil {
		panic("vit: Backward before Forward(train=true)")
	}
	t := m.Cfg.Tokens()
	d := m.Cfg.Dim
	dFeats := tensor.New(m.batch*t, d)
	if dFeatsExtra != nil {
		dFeats.AddInPlace(dFeatsExtra)
	}
	if dDet != nil {
		dFeats.AddInPlace(m.Det.Backward(dDet))
	}
	if dCls != nil {
		dPooled := m.Cls.Backward(dCls) // (B, Dim)
		inv := float32(1) / float32(t)
		for bi := 0; bi < m.batch; bi++ {
			prow := dPooled.Data[bi*d : (bi+1)*d]
			for ti := 0; ti < t; ti++ {
				frow := dFeats.Data[(bi*t+ti)*d : (bi*t+ti+1)*d]
				for j, v := range prow {
					frow[j] += v * inv
				}
			}
		}
	}
	dx := m.Trunk.Backward(dFeats)
	dx = m.Pos.Backward(dx)
	m.Embed.Backward(dx)
}

// Params returns every trainable parameter of the model.
func (m *Model) Params() []*nn.Param {
	ps := append(m.Embed.Params(), m.Pos.Params()...)
	ps = append(ps, m.Trunk.Params()...)
	ps = append(ps, m.Det.Params()...)
	ps = append(ps, m.Cls.Params()...)
	return ps
}

// NumParams returns the scalar parameter count.
func (m *Model) NumParams() int { return nn.CountParams(m.Params()) }

// Patchify converts a batch of (C,H,W) images into the packed
// (B*Tokens, PatchDim) layout the model consumes: training's batch packer
// (Detect gathers into its workspace instead). Patches are extracted in
// row-major grid order; within a patch, values are ordered channel-major
// (c, then y, then x), matching the Workload the hardware mapper assumes.
func Patchify(cfg Config, images []*tensor.Tensor) *tensor.Tensor {
	out := tensor.New(len(images)*cfg.Tokens(), cfg.PatchDim())
	gather(cfg, out.Data, images)
	return out
}

// gather writes the patches of images into dst in Patchify's layout.
func gather(cfg Config, dst []float32, images []*tensor.Tensor) {
	g := cfg.Grid()
	p := cfg.PatchSize
	pd := cfg.PatchDim()
	for bi, img := range images {
		if img.Dims() != 3 || img.Shape[0] != cfg.Channels || img.Shape[1] != cfg.ImageSize || img.Shape[2] != cfg.ImageSize {
			panic(fmt.Sprintf("vit: Patchify image %d has shape %v, want (%d,%d,%d)",
				bi, img.Shape, cfg.Channels, cfg.ImageSize, cfg.ImageSize))
		}
		for gy := 0; gy < g; gy++ {
			for gx := 0; gx < g; gx++ {
				row := dst[(bi*cfg.Tokens()+gy*g+gx)*pd:]
				k := 0
				for c := 0; c < cfg.Channels; c++ {
					for y := 0; y < p; y++ {
						srcOff := (c*cfg.ImageSize+(gy*p+y))*cfg.ImageSize + gx*p
						copy(row[k:k+p], img.Data[srcOff:srcOff+p])
						k += p
					}
				}
			}
		}
	}
}
