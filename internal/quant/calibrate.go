package quant

import (
	"fmt"

	"itask/internal/tensor"
	"itask/internal/vit"
)

// Observer accumulates the value distribution of an activation site across
// calibration batches. A percentile clip discards outliers at Params time.
type Observer struct {
	values []float32
}

// Observe folds one activation tensor into the statistics.
func (o *Observer) Observe(t *tensor.Tensor) {
	o.values = append(o.values, t.Data...)
}

// Params computes the calibrated quantization parameters at the given bit
// width; pct in (0,1] clips symmetric tails (1 = pure min/max).
func (o *Observer) Params(bits int, pct float64) QParams {
	if len(o.values) == 0 {
		panic("quant: Observer.Params with no observations")
	}
	return PercentileParams(o.values, bits, pct)
}

// StaticParams holds calibrated activation parameters for every linear site
// of the quantized ViT. Attention-internal products (scores, context)
// remain dynamically quantized: their ranges vary strongly per image and
// head, which matches how production int8 transformer stacks split it.
type StaticParams struct {
	EmbedIn QParams
	Blocks  []StaticBlockParams
	DetIn   QParams
	ClsIn   QParams
}

// StaticBlockParams are the per-block linear-input parameters.
type StaticBlockParams struct {
	QKVIn, ProjIn, MLP1In, MLP2In QParams
}

// sites lists the parameters in the order Model.linears lists the layers
// whose inputs they quantize.
func (sp *StaticParams) sites() []*QParams {
	ps := []*QParams{&sp.EmbedIn}
	for i := range sp.Blocks {
		b := &sp.Blocks[i]
		ps = append(ps, &b.QKVIn, &b.ProjIn, &b.MLP1In, &b.MLP2In)
	}
	return append(ps, &sp.DetIn, &sp.ClsIn)
}

// observed is the float model's sites with every linear site's input
// recorded on its way in.
type observed struct {
	*vit.Model
	in map[vit.Site]*Observer
}

func (o observed) Linear(ws *vit.Workspace, s vit.Site, out, x *tensor.Tensor) {
	ob := o.in[s]
	if ob == nil {
		ob = new(Observer)
		o.in[s] = ob
	}
	ob.Observe(x)
	o.Model.Linear(ws, s, out, x)
}

// Calibrate runs calibration images through the FLOAT model's inference
// forward, observes the input of every linear site, and returns static
// activation parameters for the scheme. pct is the percentile clip (0.999
// is a good default).
func Calibrate(m *vit.Model, images []*tensor.Tensor, qc Config, pct float64) (*StaticParams, error) {
	if err := qc.Validate(); err != nil {
		return nil, err
	}
	if len(images) == 0 {
		return nil, fmt.Errorf("quant: calibration needs at least one image")
	}
	bits := qc.actBits()
	obs := observed{Model: m, in: make(map[vit.Site]*Observer)}
	feats := vit.Infer(m.Cfg, m.Pos.Emb.W, obs, vit.Patchify(m.Cfg, images))
	var detIn, clsIn Observer
	detIn.Observe(feats)
	clsIn.Observe(m.PoolFeats(feats))

	in := func(b int, k vit.SiteKind) QParams { return obs.in[vit.Site{Block: b, Kind: k}].Params(bits, pct) }
	sp := &StaticParams{
		EmbedIn: in(0, vit.Embed),
		DetIn:   detIn.Params(bits, pct),
		ClsIn:   clsIn.Params(bits, pct),
	}
	for b := 0; b < m.Cfg.Depth; b++ {
		sp.Blocks = append(sp.Blocks, StaticBlockParams{
			QKVIn:  in(b, vit.QKV),
			ProjIn: in(b, vit.Proj),
			MLP1In: in(b, vit.MLP1),
			MLP2In: in(b, vit.MLP2),
		})
	}
	return sp, nil
}
