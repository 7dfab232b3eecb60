package quant

import (
	"fmt"

	"itask/internal/approx"
	"itask/internal/geom"
	"itask/internal/kernels"
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
	// static is the calibrated quantization of the layer's input under
	// static quantization (SetStatic), nil when dynamic.
	static *QParams
}

func quantLinear(l *nn.Linear, qc Config) qLinear {
	ql := qLinear{w: QuantizeWeight(l.Weight.W, qc.Bits, qc.PerChannel)}
	if l.Bias != nil {
		ql.bias = append([]float32(nil), l.Bias.W.Data...)
	}
	return ql
}

// apply writes the layer's output on x into out: x quantized under the
// calibrated parameters when static, under its own range at actBits
// otherwise, staged in codes (rows·In).
func (l *qLinear) apply(out, x *tensor.Tensor, actBits int, codes []int8) {
	if l.static != nil {
		linearInto(out, x, *l.static, l.w, l.bias, codes)
		return
	}
	linearInto(out, x, AsymmetricParams(x.Data, actBits), l.w, l.bias, codes)
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

// Model is the quantized ViT. Inference (Forward, the heads, Detect*) only
// reads it and may run on many goroutines at once. SetStatic and
// SetApproxVector are experiment toggles that write it: call them only
// while no inference runs.
type Model struct {
	Cfg    vit.Config
	QC     Config
	embed  qLinear
	pos    *tensor.Tensor
	blocks []qBlock
	normF  lnParams
	det    qLinear
	cls    qLinear
	// approxVector switches LayerNorm/softmax/GELU to the hardware vector
	// unit's approximations (internal/approx).
	approxVector bool
}

// SetApproxVector toggles the approximate vector-unit math (experiment E11).
func (qm *Model) SetApproxVector(on bool) { qm.approxVector = on }

// SetStatic installs calibrated activation parameters (from Calibrate),
// switching every linear layer from dynamic activation quantization to
// them. Pass nil to return to dynamic quantization.
func (qm *Model) SetStatic(sp *StaticParams) error {
	if sp != nil && len(sp.Blocks) != qm.Cfg.Depth {
		return fmt.Errorf("quant: static params for %d blocks, model has %d", len(sp.Blocks), qm.Cfg.Depth)
	}
	var in []*QParams
	if sp != nil {
		in = sp.sites()
	}
	for i, l := range qm.linears() {
		l.static = nil
		if in != nil {
			l.static = in[i]
		}
	}
	return nil
}

// linears lists the model's linear layers in the order StaticParams.sites
// lists their inputs: embed, each block's qkv, proj, mlp1, mlp2, then det
// and cls.
func (qm *Model) linears() []*qLinear {
	ls := []*qLinear{&qm.embed}
	for i := range qm.blocks {
		b := &qm.blocks[i]
		ls = append(ls, &b.qkv, &b.proj, &b.mlp1, &b.mlp2)
	}
	return append(ls, &qm.det, &qm.cls)
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
		normF: fromLayerNorm(m.NormF),
		det:   quantLinear(m.Det, qc),
		cls:   quantLinear(m.Cls, qc),
	}
	for _, b := range m.Blocks {
		qm.blocks = append(qm.blocks, qBlock{
			ln1:  fromLayerNorm(b.LN1),
			qkv:  quantLinear(b.Attn.QKV, qc),
			proj: quantLinear(b.Attn.Proj, qc),
			ln2:  fromLayerNorm(b.LN2),
			mlp1: quantLinear(b.MLP1, qc),
			mlp2: quantLinear(b.MLP2, qc),
		})
	}
	return qm, nil
}

// Forward runs the quantized trunk on packed patches, returning token
// features (B*Tokens, Dim): vit's inference trunk with the int8 sites below.
func (qm *Model) Forward(patches *tensor.Tensor) *tensor.Tensor {
	return vit.Infer(qm.Cfg, qm.pos, qm, patches)
}

// Linear is the int8 linear site, the trunk's and both heads': quantize
// the input, integer GEMM against the prequantized weight, dequantize, add
// bias, staged in workspace scratch.
func (qm *Model) Linear(ws *vit.Workspace, s vit.Site, out, x *tensor.Tensor) {
	l := &qm.embed
	switch s.Kind {
	case vit.QKV:
		l = &qm.blocks[s.Block].qkv
	case vit.Proj:
		l = &qm.blocks[s.Block].proj
	case vit.MLP1:
		l = &qm.blocks[s.Block].mlp1
	case vit.MLP2:
		l = &qm.blocks[s.Block].mlp2
	case vit.Det:
		l = &qm.det
	case vit.Cls:
		l = &qm.cls
	}
	l.apply(out, x, qm.QC.actBits(), ws.I8(x.Size()))
}

// LayerNorm is the float LayerNorm site, exact or the vector unit's
// approximation (which allocates: it is an accuracy experiment, not a
// serving path).
func (qm *Model) LayerNorm(s vit.Site, out, x *tensor.Tensor) {
	p := qm.normF
	switch s.Kind {
	case vit.LN1:
		p = qm.blocks[s.Block].ln1
	case vit.LN2:
		p = qm.blocks[s.Block].ln2
	}
	if qm.approxVector {
		copy(out.Data, approx.LayerNormRows(x, p.gamma, p.beta, p.eps).Data)
		return
	}
	tensor.LayerNormF32Into(out, x, p.gamma, p.beta, p.eps)
}

// Attend is one int8 attention head. Both products are integer GEMMs with
// the key block and vᵀ quantized per row as weights and the queries and
// probabilities as activations — all dynamic: these "weights" are
// activations, so no calibrated parameters exist for them. The queries and
// keys are quantized where they lie in the qkv projection, and the context
// is dequantized straight into its place in the sublayer buffer.
func (qm *Model) Attend(ws *vit.Workspace, h vit.Head, scores *tensor.Tensor, scale float32) {
	qm.headProduct(ws, scores.Data, h.T, h.Q, h.T, h.LD, qm.headWeight(ws, h.K, h.T, h.DH, h.LD))
	if qm.approxVector {
		scores.ScaleInPlace(scale)
		copy(scores.Data, approx.SoftmaxRows(scores).Data)
	} else {
		scores.SoftmaxRowsF32(scale)
	}
	qm.headProduct(ws, h.Ctx, h.LDC, scores.Data, h.T, h.T, qm.headWeight(ws, h.Vt, h.DH, h.T, h.T))
}

// headProduct is one of attention's two products: the (rows, w.In) block x
// at row stride ldx quantized under its own asymmetric range, times wᵀ,
// dequantized into out at row stride ldo.
func (qm *Model) headProduct(ws *vit.Workspace, out []float32, ldo int, x []float32, rows, ldx int, w QWeight) {
	mn, mx := kernels.RangeF32(x, rows, w.In, ldx)
	qa := QActivation{Q: ws.I8(rows * w.In), QP: asymmetricParams(mn, mx, qm.QC.actBits()), Rows: rows, Cols: w.In}
	qa.QP.quantizeBlock(qa.Q, x, rows, w.In, ldx)
	gemmAt(out, ldo, &qa, w, nil)
}

// headWeight quantizes the (out, in) block data at row stride ld, one
// operand of one head, as a weight in workspace scratch: panels only, no
// row-major codes. Per channel one kernels.QuantizeRowsI8 call writes the
// panels; per tensor the block's codes are packed.
func (qm *Model) headWeight(ws *vit.Workspace, data []float32, out, in, ld int) QWeight {
	qw := QWeight{P: ws.I8(kernels.PanelLenI8(out, in)), RowSums: ws.I32(out), Out: out, In: in, Bits: qm.QC.Bits}
	if qm.QC.PerChannel {
		_, hi := qRange(qw.Bits)
		qw.Scales = ws.F32(out)
		kernels.QuantizeRowsI8(qw.P, qw.Scales, qw.RowSums, data, out, in, ld, hi)
		return qw
	}
	mn, mx := kernels.RangeF32(data, out, in, ld)
	qp := symmetricParams(mn, mx, qw.Bits)
	codes := ws.I8(out * in)
	qp.quantizeBlock(codes, data, out, in, ld)
	qw.Scales = ws.F32(1)
	qw.Scales[0] = qp.Scale
	rowSums(codes, out, in, qw.RowSums)
	kernels.PackI8(qw.P, codes, out, in)
	return qw
}

// GELU is the activation site, exact or the vector unit's approximation.
func (qm *Model) GELU(x *tensor.Tensor) {
	if qm.approxVector {
		x.ApplyInPlace(approx.GELU)
		return
	}
	tensor.GELUF32Into(x, x)
}

// DetHead applies the quantized detection head.
func (qm *Model) DetHead(feats *tensor.Tensor) *tensor.Tensor {
	return vit.ApplyLinear(qm, vit.Site{Kind: vit.Det}, feats, qm.det.w.Out)
}

// DetectBatch runs end-to-end quantized detection on a batch of (C,H,W)
// images — vit.Detect with the int8 sites — returning one detection set per
// image.
func (qm *Model) DetectBatch(imgs []*tensor.Tensor, objThresh, nmsIoU float64) [][]geom.Scored {
	return vit.Detect(qm.Cfg, qm.pos, qm, imgs, objThresh, nmsIoU)
}

// Detect runs end-to-end quantized detection on one (C,H,W) image: the
// batch of one.
func (qm *Model) Detect(img *tensor.Tensor, objThresh, nmsIoU float64) []geom.Scored {
	return qm.DetectBatch([]*tensor.Tensor{img}, objThresh, nmsIoU)[0]
}

// WeightBytes returns the quantized weight storage footprint in bytes,
// the figure the edge scheduler budgets against.
func (qm *Model) WeightBytes() int {
	bits := 0
	for _, l := range qm.linears() {
		bits += len(l.w.Q)*l.w.Bits + 32*(len(l.w.Scales)+len(l.bias))
	}
	for _, b := range qm.blocks {
		bits += 32 * (len(b.ln1.gamma) + len(b.ln1.beta) + len(b.ln2.gamma) + len(b.ln2.beta))
	}
	bits += 32 * (len(qm.normF.gamma) + len(qm.normF.beta) + qm.pos.Size())
	return bits / 8
}
