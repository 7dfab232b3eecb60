package quant

import (
	"fmt"
	"math"

	"itask/internal/approx"
	"itask/internal/geom"
	"itask/internal/nn"
	"itask/internal/tensor"
	"itask/internal/vit"
)

// Config selects the quantization scheme.
type Config struct {
	// Bits is the weight bit width (4, 6 or 8).
	Bits int
	// ActBits is the activation bit width; 0 means same as Bits.
	ActBits int
	// PerChannel enables per-output-channel weight scales (vs per-tensor).
	PerChannel bool
}

// DefaultConfig is the int8 per-channel scheme used for the paper's
// quantized configuration.
func DefaultConfig() Config { return Config{Bits: 8, PerChannel: true} }

// Validate checks the scheme.
func (c Config) Validate() error {
	check := func(b int) error {
		switch b {
		case 4, 6, 8:
			return nil
		}
		return fmt.Errorf("quant: unsupported bit width %d", b)
	}
	if err := check(c.Bits); err != nil {
		return err
	}
	if c.ActBits != 0 {
		return check(c.ActBits)
	}
	return nil
}

func (c Config) actBits() int {
	if c.ActBits == 0 {
		return c.Bits
	}
	return c.ActBits
}

// qLinear is a quantized linear layer.
type qLinear struct {
	w    QWeight
	bias []float32
}

func quantLinear(l *nn.Linear, qc Config) qLinear {
	ql := qLinear{w: QuantizeWeight(l.Weight.W, qc.Bits, qc.PerChannel)}
	if l.Bias != nil {
		ql.bias = append([]float32(nil), l.Bias.W.Data...)
	}
	return ql
}

// forwardWith uses static parameters when qp is non-nil, else dynamic.
func (l qLinear) forwardWith(x *tensor.Tensor, qp *QParams, actBits int) *tensor.Tensor {
	out := tensor.New(x.Shape[0], l.w.Out)
	l.forwardWithInto(out, x, qp, actBits)
	return out
}

// forwardWithInto is forwardWith writing into a caller-provided (rows, Out)
// tensor, so trunk intermediates can live in the scratch arena.
func (l qLinear) forwardWithInto(out, x *tensor.Tensor, qp *QParams, actBits int) {
	if qp != nil {
		LinearWithQPInto(out, x, *qp, l.w, l.bias)
		return
	}
	LinearInto(out, x, l.w, l.bias, actBits)
}

// lnParams is a float LayerNorm (normalization stays in float on the
// accelerator's vector unit, as in production int8 transformer stacks).
type lnParams struct {
	gamma, beta []float32
	eps         float32
}

func fromLayerNorm(ln *nn.LayerNorm) lnParams {
	return lnParams{
		gamma: append([]float32(nil), ln.Gamma.W.Data...),
		beta:  append([]float32(nil), ln.Beta.W.Data...),
		eps:   ln.Eps,
	}
}

// qBlock is one quantized transformer block.
type qBlock struct {
	ln1        lnParams
	qkv, proj  qLinear
	ln2        lnParams
	mlp1, mlp2 qLinear
}

// Model is the quantized ViT. It is immutable after construction and safe
// for concurrent inference.
type Model struct {
	Cfg    vit.Config
	QC     Config
	embed  qLinear
	pos    *tensor.Tensor
	blocks []qBlock
	normF  lnParams
	det    qLinear
	cls    qLinear
	// static, when non-nil, switches the linear sites from dynamic
	// activation quantization to the calibrated parameters.
	static *StaticParams
	// approxVector switches LayerNorm/softmax/GELU to the hardware vector
	// unit's approximations (internal/approx).
	approxVector bool
}

// SetApproxVector toggles the approximate vector-unit math (experiment E11).
func (qm *Model) SetApproxVector(on bool) { qm.approxVector = on }

// applyLNInto writes the (exact or approximate) LayerNorm of x into dst.
// The approximate path is an accuracy experiment, not a serving path, so it
// keeps its own allocation and copies through.
func (qm *Model) applyLNInto(dst *tensor.Tensor, p lnParams, x *tensor.Tensor) {
	if qm.approxVector {
		y := approx.LayerNormRows(x, p.gamma, p.beta, p.eps)
		copy(dst.Data, y.Data)
		return
	}
	tensor.LayerNormF32Into(dst, x, p.gamma, p.beta, p.eps)
}

// softmaxRowsInPlace overwrites x with the row softmax of scale·x.
func (qm *Model) softmaxRowsInPlace(x *tensor.Tensor, scale float32) {
	if qm.approxVector {
		x.ScaleInPlace(scale)
		copy(x.Data, approx.SoftmaxRows(x).Data)
		return
	}
	x.SoftmaxRowsF32(scale)
}

// applyGELUInPlace overwrites x with the activation.
func (qm *Model) applyGELUInPlace(x *tensor.Tensor) {
	if qm.approxVector {
		x.ApplyInPlace(approx.GELU)
		return
	}
	tensor.GELUF32Into(x, x)
}

// SetStatic installs calibrated activation parameters (from Calibrate).
// Pass nil to return to dynamic quantization.
func (qm *Model) SetStatic(sp *StaticParams) error {
	if sp != nil && len(sp.Blocks) != qm.Cfg.Depth {
		return fmt.Errorf("quant: static params for %d blocks, model has %d", len(sp.Blocks), qm.Cfg.Depth)
	}
	qm.static = sp
	return nil
}

// siteQP returns the static parameters for a site, or nil when dynamic.
func (qm *Model) siteQP(get func(*StaticParams) QParams) *QParams {
	if qm.static == nil {
		return nil
	}
	qp := get(qm.static)
	return &qp
}

// FromViT quantizes a trained float model. The float model is not modified.
func FromViT(m *vit.Model, qc Config) (*Model, error) {
	if err := qc.Validate(); err != nil {
		return nil, err
	}
	qm := &Model{
		Cfg:   m.Cfg,
		QC:    qc,
		embed: quantLinear(m.Embed, qc),
		pos:   m.Pos.Emb.W.Clone(),
		det:   quantLinear(m.Det, qc),
		cls:   quantLinear(m.Cls, qc),
	}
	layers := m.Trunk.Layers
	if len(layers) != 2*m.Cfg.Depth+1 {
		return nil, fmt.Errorf("quant: unexpected trunk length %d for depth %d", len(layers), m.Cfg.Depth)
	}
	finalLN, ok := layers[len(layers)-1].(*nn.LayerNorm)
	if !ok {
		return nil, fmt.Errorf("quant: trunk does not end in LayerNorm")
	}
	qm.normF = fromLayerNorm(finalLN)
	for i := 0; i+1 < len(layers); i += 2 {
		attnRes, ok1 := layers[i].(*nn.Residual)
		mlpRes, ok2 := layers[i+1].(*nn.Residual)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("quant: trunk layer %d is not a residual pair", i)
		}
		attnSeq, ok1 := attnRes.Body.(*nn.Sequential)
		mlpSeq, ok2 := mlpRes.Body.(*nn.Sequential)
		if !ok1 || !ok2 || len(attnSeq.Layers) < 2 || len(mlpSeq.Layers) < 4 {
			return nil, fmt.Errorf("quant: block %d has unexpected structure", i/2)
		}
		ln1, ok1 := attnSeq.Layers[0].(*nn.LayerNorm)
		mhsa, ok2 := attnSeq.Layers[1].(*nn.MultiHeadAttention)
		ln2, ok3 := mlpSeq.Layers[0].(*nn.LayerNorm)
		fc1, ok4 := mlpSeq.Layers[1].(*nn.Linear)
		fc2, ok5 := mlpSeq.Layers[3].(*nn.Linear)
		if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 {
			return nil, fmt.Errorf("quant: block %d has unexpected layer types", i/2)
		}
		qm.blocks = append(qm.blocks, qBlock{
			ln1:  fromLayerNorm(ln1),
			qkv:  quantLinear(mhsa.QKV, qc),
			proj: quantLinear(mhsa.Proj, qc),
			ln2:  fromLayerNorm(ln2),
			mlp1: quantLinear(fc1, qc),
			mlp2: quantLinear(fc2, qc),
		})
	}
	return qm, nil
}

// attentionInto runs integer-GEMM multi-head self-attention on normalized
// input xn (B*T, Dim), writing the projected output into dst (B*T, Dim).
// blk is the block index (for static site lookup).
//
// The (batch × heads) loop stages its head slices, on-the-fly key/value
// quantizations, and score matrix in pooled scratch taken once per call, so
// the steady-state path performs no per-head allocation. The score and
// context products always use dynamic per-head weight quantization — those
// "weights" are activations, so no calibrated static parameters exist for
// them.
func (qm *Model) attentionInto(dst *tensor.Tensor, blk int, b qBlock, xn *tensor.Tensor) {
	ab := qm.QC.actBits()
	d := qm.Cfg.Dim
	t := qm.Cfg.Tokens()
	h := qm.Cfg.Heads
	dh := d / h
	rows := xn.Shape[0]
	batch := rows / t
	qkv := tensor.GetScratchNoZero(rows, 3*d)
	b.qkv.forwardWithInto(qkv, xn, qm.siteQP(func(s *StaticParams) QParams { return s.Blocks[blk].QKVIn }), ab)
	out := tensor.GetScratchNoZero(rows, d)
	scale := float32(1 / math.Sqrt(float64(dh)))
	qh := tensor.GetScratchNoZero(t, dh)
	kh := tensor.GetScratchNoZero(t, dh)
	vt := tensor.GetScratchNoZero(dh, t)
	scores := tensor.GetScratchNoZero(t, t)
	kw := getQW(t, dh, qm.QC.Bits, qm.QC.PerChannel)
	vw := getQW(dh, t, qm.QC.Bits, qm.QC.PerChannel)
	// One staging serves both products of every head: (t, dh) codes into
	// (t, t) sums, then (t, t) into (t, dh).
	st := getStaging(t*max(t, dh), t*max(t, dh))
	for bi := 0; bi < batch; bi++ {
		for hd := 0; hd < h; hd++ {
			for ti := 0; ti < t; ti++ {
				src := qkv.Data[(bi*t+ti)*3*d:]
				copy(qh.Data[ti*dh:(ti+1)*dh], src[hd*dh:(hd+1)*dh])
				copy(kh.Data[ti*dh:(ti+1)*dh], src[d+hd*dh:d+(hd+1)*dh])
				// v goes straight into its transpose (dh, t): the context
				// product quantizes vᵀ as a per-row weight matrix.
				for j := 0; j < dh; j++ {
					vt.Data[j*t+ti] = src[2*d+hd*dh+j]
				}
			}
			// scores = qh @ khᵀ, integer GEMM with kh as per-row weights.
			quantizeWeightInto(kw, kh.Data, qm.QC.PerChannel)
			st.linear(scores, qh, *kw, nil, ab)
			qm.softmaxRowsInPlace(scores, scale)
			// context = p @ vh = p @ (vhᵀ)ᵀ; qh's values are dead, reuse it
			// as the (t, dh) context destination.
			quantizeWeightInto(vw, vt.Data, qm.QC.PerChannel)
			st.linear(qh, scores, *vw, nil, ab)
			for ti := 0; ti < t; ti++ {
				o := out.Data[(bi*t+ti)*d+hd*dh:]
				copy(o[:dh], qh.Data[ti*dh:(ti+1)*dh])
			}
		}
	}
	stagingPool.Put(st)
	putQW(kw, vw)
	tensor.PutScratch(qh, kh, vt, scores)
	b.proj.forwardWithInto(dst, out, qm.siteQP(func(s *StaticParams) QParams { return s.Blocks[blk].ProjIn }), ab)
	tensor.PutScratch(qkv, out)
}

// Forward runs the quantized trunk on packed patches, returning token
// features (B*Tokens, Dim). Every trunk intermediate lives in the scratch
// arena; only the returned feature tensor is heap-allocated.
func (qm *Model) Forward(patches *tensor.Tensor) *tensor.Tensor {
	ab := qm.QC.actBits()
	rows := patches.Shape[0]
	d := qm.Cfg.Dim
	t := qm.Cfg.Tokens()
	x := tensor.GetScratchNoZero(rows, d)
	qm.embed.forwardWithInto(x, patches, qm.siteQP(func(s *StaticParams) QParams { return s.EmbedIn }), ab)
	// position embedding
	for i := 0; i < rows; i++ {
		tok := i % t
		row := x.Data[i*d : (i+1)*d]
		pos := qm.pos.Data[tok*d : (tok+1)*d]
		for j, p := range pos {
			row[j] += p
		}
	}
	// xn holds each sublayer's normalized input, y its output (added back
	// into the residual stream x); the MLP hidden buffer is shared across
	// blocks since every block has the same expansion width.
	xn := tensor.GetScratchNoZero(rows, d)
	y := tensor.GetScratchNoZero(rows, d)
	var hbuf *tensor.Tensor
	if len(qm.blocks) > 0 {
		hbuf = tensor.GetScratchNoZero(rows, qm.blocks[0].mlp1.w.Out)
	}
	for i, b := range qm.blocks {
		qm.applyLNInto(xn, b.ln1, x)
		qm.attentionInto(y, i, b, xn)
		x.AddInPlace(y)
		qm.applyLNInto(xn, b.ln2, x)
		b.mlp1.forwardWithInto(hbuf, xn,
			qm.siteQP(func(s *StaticParams) QParams { return s.Blocks[i].MLP1In }), ab)
		qm.applyGELUInPlace(hbuf)
		b.mlp2.forwardWithInto(y, hbuf,
			qm.siteQP(func(s *StaticParams) QParams { return s.Blocks[i].MLP2In }), ab)
		x.AddInPlace(y)
	}
	feats := tensor.New(rows, d)
	qm.applyLNInto(feats, qm.normF, x)
	tensor.PutScratch(x, xn, y, hbuf)
	return feats
}

// DetHead applies the quantized detection head.
func (qm *Model) DetHead(feats *tensor.Tensor) *tensor.Tensor {
	return qm.det.forwardWith(feats, qm.siteQP(func(s *StaticParams) QParams { return s.DetIn }), qm.QC.actBits())
}

// ClsHead mean-pools and applies the quantized classification head.
func (qm *Model) ClsHead(feats *tensor.Tensor) *tensor.Tensor {
	t := qm.Cfg.Tokens()
	b := feats.Shape[0] / t
	d := qm.Cfg.Dim
	pooled := tensor.GetScratch(b, d)
	inv := float32(1) / float32(t)
	for bi := 0; bi < b; bi++ {
		orow := pooled.Data[bi*d : (bi+1)*d]
		for ti := 0; ti < t; ti++ {
			frow := feats.Data[(bi*t+ti)*d : (bi*t+ti+1)*d]
			for j, v := range frow {
				orow[j] += v * inv
			}
		}
	}
	out := qm.cls.forwardWith(pooled, qm.siteQP(func(s *StaticParams) QParams { return s.ClsIn }), qm.QC.actBits())
	tensor.PutScratch(pooled)
	return out
}

// Detect runs end-to-end quantized detection on one (C,H,W) image.
func (qm *Model) Detect(img *tensor.Tensor, objThresh, nmsIoU float64) []geom.Scored {
	patches := vit.Patchify(qm.Cfg, []*tensor.Tensor{img})
	feats := qm.Forward(patches)
	det := qm.DetHead(feats)
	return vit.Decode(qm.Cfg, det, objThresh, nmsIoU)
}

// DetectBatch runs end-to-end quantized detection on a micro-batch of
// (C,H,W) images in one packed forward pass, returning one detection set
// per image.
func (qm *Model) DetectBatch(imgs []*tensor.Tensor, objThresh, nmsIoU float64) [][]geom.Scored {
	if len(imgs) == 0 {
		return nil
	}
	t := qm.Cfg.Tokens()
	patches := vit.Patchify(qm.Cfg, imgs)
	feats := qm.Forward(patches)
	det := qm.DetHead(feats)
	out := make([][]geom.Scored, len(imgs))
	for i := range imgs {
		out[i] = vit.Decode(qm.Cfg, det.Slice2D(i*t, (i+1)*t), objThresh, nmsIoU)
	}
	return out
}

// WeightBytes returns the quantized weight storage footprint in bytes,
// the figure the edge scheduler budgets against.
func (qm *Model) WeightBytes() int {
	bits := 0
	add := func(l qLinear) {
		bits += len(l.w.Q) * l.w.Bits
		bits += 32 * (len(l.w.Scales) + len(l.bias))
	}
	add(qm.embed)
	add(qm.det)
	add(qm.cls)
	for _, b := range qm.blocks {
		add(b.qkv)
		add(b.proj)
		add(b.mlp1)
		add(b.mlp2)
		bits += 32 * (len(b.ln1.gamma) + len(b.ln1.beta) + len(b.ln2.gamma) + len(b.ln2.beta))
	}
	bits += 32 * (len(qm.normF.gamma) + len(qm.normF.beta) + qm.pos.Size())
	return bits / 8
}
