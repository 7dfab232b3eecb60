package vit

import (
	"fmt"
	"math"
	"sync"

	"itask/internal/geom"
	"itask/internal/tensor"
)

// The inference forward. Both serving models are this ViT — the float
// student and its int8 quantization (internal/quant) — and differ only in
// the arithmetic at a few kinds of site, which each brings through Sites.
// Everything else lives here once: the patch gather, the patch embedding and
// position add, the residual stream, each block's LN → attention → LN → MLP
// order, the (batch × head) loop with its one staged operand, vᵀ, the
// detection head and its decode, and the memory every intermediate lives in.

// SiteKind names a linear or LayerNorm site of the trunk, or a head.
type SiteKind uint8

const (
	Embed SiteKind = iota // patch embedding (linear)
	LN1                   // a block's pre-attention LayerNorm
	QKV                   // a block's fused q/k/v projection (linear)
	Proj                  // a block's attention output projection (linear)
	LN2                   // a block's pre-MLP LayerNorm
	MLP1                  // a block's MLP expansion (linear)
	MLP2                  // a block's MLP contraction (linear)
	NormF                 // the final LayerNorm
	Det                   // the per-token detection head (linear)
	Cls                   // the pooled classification head (linear)
)

// Site is one site of the trunk or a head: its kind and, for the per-block
// kinds, the block it sits in (0 otherwise).
type Site struct {
	Block int
	Kind  SiteKind
}

// Sites is the arithmetic a model brings to the inference trunk. A served
// model's methods run on many goroutines at once, so they may only read
// the model. A Workspace passed in is valid until the method returns;
// nothing taken from it may be kept.
type Sites interface {
	// Linear writes x·Wᵀ + b of linear site s into out (rows, Out).
	Linear(ws *Workspace, s Site, out, x *tensor.Tensor)
	// LayerNorm writes the LayerNorm of x at site s into out.
	LayerNorm(s Site, out, x *tensor.Tensor)
	// Attend writes one head's softmax(scale·q·kᵀ)·v into h.Ctx, with the
	// scores (T, T) scratch.
	Attend(ws *Workspace, h Head, scores *tensor.Tensor, scale float32)
	// GELU overwrites x with its activation.
	GELU(x *tensor.Tensor)
}

// Head is one attention head of one image where it lies: row i of its
// (T, DH) queries and keys starts at Q[i*LD] and K[i*LD] (inside the fused
// qkv projection, LD = 3·Dim), Vt is vᵀ (DH, T), and row i of the context
// belongs at Ctx[i*LDC] (inside the sublayer buffer, LDC = Dim). Every
// slice runs to its buffer's end; a site reads and writes only those rows.
type Head struct {
	Q, K, Vt, Ctx  []float32
	T, DH, LD, LDC int
}

// Workspace holds every intermediate of one inference call: the gathered
// patches, the trunk's tensors, the features, the detection head's output,
// the decode's candidates and whatever scratch the sites take (activation
// codes, int32 accumulators, per-head key/value codes). Its one ownership
// rule: a workspace belongs to one Detect, Infer or ApplyLinear call, which
// takes it from the pool and returns it before it returns, so no slice of it
// outlives the call. What such a call returns is fresh: Detect's answer,
// Infer's features, ApplyLinear's output.
type Workspace struct {
	f32 arena[float32]
	i8  arena[int8]
	i32 arena[int32]

	patches, feats, det tensor.Tensor // the detect path's input, features and head output
	x, xn, y, qkv, hid  tensor.Tensor // residual stream and sublayer buffers
	scores              tensor.Tensor // one head
	cands               []geom.Scored // one image's boxes before NMS
}

var workspaces = sync.Pool{New: func() any { return new(Workspace) }}

// getWorkspace takes an empty workspace from the pool; put it back with
// workspaces.Put before returning.
func getWorkspace() *Workspace {
	ws := workspaces.Get().(*Workspace)
	ws.release(mark{})
	return ws
}

// F32 returns n float32s of scratch with arbitrary contents.
func (ws *Workspace) F32(n int) []float32 { return ws.f32.take(n) }

// I8 returns n int8s of scratch with arbitrary contents.
func (ws *Workspace) I8(n int) []int8 { return ws.i8.take(n) }

// I32 returns n int32s of scratch with arbitrary contents.
func (ws *Workspace) I32(n int) []int32 { return ws.i32.take(n) }

// matrix points t at fresh (r, c) scratch.
func (ws *Workspace) matrix(t *tensor.Tensor, r, c int) *tensor.Tensor {
	t.Data = ws.F32(r * c)
	t.Shape = append(t.Shape[:0], r, c)
	return t
}

// mark and release bracket a site call: what the site took is dead when it
// returns.
type mark struct{ f32, i8, i32 int }

func (ws *Workspace) mark() mark { return mark{ws.f32.n, ws.i8.n, ws.i32.n} }

func (ws *Workspace) release(m mark) { ws.f32.n, ws.i8.n, ws.i32.n = m.f32, m.i8, m.i32 }

// linear runs linear site site of s; its scratch is dead when it returns.
func (ws *Workspace) linear(s Sites, site Site, out, in *tensor.Tensor) {
	m := ws.mark()
	s.Linear(ws, site, out, in)
	ws.release(m)
}

// arena hands out consecutive pieces of one backing array.
type arena[T any] struct {
	buf []T
	n   int
}

func (a *arena[T]) take(n int) []T {
	if a.n+n > len(a.buf) {
		// Pieces already handed out keep the old array; the new one holds
		// this call's peak, so a warm workspace never grows.
		a.buf = make([]T, max(2*len(a.buf), a.n+n))
	}
	s := a.buf[a.n : a.n+n : a.n+n]
	a.n += n
	return s
}

// Infer runs the inference trunk of a ViT of geometry cfg with position
// embedding pos (Tokens, Dim) on packed patches (B·Tokens, PatchDim),
// the arithmetic at every site brought by s, and returns the token features
// (B·Tokens, Dim). Distillation and calibration read features; serving
// calls Detect.
func Infer(cfg Config, pos *tensor.Tensor, s Sites, patches *tensor.Tensor) *tensor.Tensor {
	t := cfg.Tokens()
	if patches.Dims() != 2 || patches.Shape[1] != cfg.PatchDim() || patches.Shape[0]%t != 0 {
		panic(fmt.Sprintf("vit: inference wants (B*%d,%d) patches, got %v", t, cfg.PatchDim(), patches.Shape))
	}
	ws := getWorkspace()
	defer workspaces.Put(ws)
	feats := tensor.New(patches.Shape[0], cfg.Dim)
	ws.trunk(cfg, pos, s, patches, feats)
	return feats
}

// Detect is both serving models' detect path on a batch of (C,H,W) images:
// the patches gathered into the workspace, the trunk, the detection head as
// one more linear site (Det) on the features where they lie, and each
// image's head rows decoded in place into boxes above objThresh, then NMS at
// nmsIoU. The answer — one detection set per image — is all it allocates.
func Detect(cfg Config, pos *tensor.Tensor, s Sites, imgs []*tensor.Tensor, objThresh, nmsIoU float64) [][]geom.Scored {
	if len(imgs) == 0 {
		return nil
	}
	t, w := cfg.Tokens(), cfg.DetWidth()
	rows := len(imgs) * t
	ws := getWorkspace()
	defer workspaces.Put(ws)
	patches := ws.matrix(&ws.patches, rows, cfg.PatchDim())
	gather(cfg, patches.Data, imgs)
	feats := ws.matrix(&ws.feats, rows, cfg.Dim)
	ws.trunk(cfg, pos, s, patches, feats)
	det := ws.matrix(&ws.det, rows, w)
	ws.linear(s, Site{Kind: Det}, det, feats)
	out := make([][]geom.Scored, len(imgs))
	for i := range out {
		out[i] = ws.decode(cfg, det.Data[i*t*w:(i+1)*t*w], objThresh, nmsIoU)
	}
	return out
}

// ApplyLinear runs linear site site of s — a head, outside the trunk — on x
// with its scratch in a pooled workspace, and returns the fresh (rows, width)
// output.
func ApplyLinear(s Sites, site Site, x *tensor.Tensor, width int) *tensor.Tensor {
	ws := getWorkspace()
	defer workspaces.Put(ws)
	out := tensor.New(x.Shape[0], width)
	ws.linear(s, site, out, x)
	return out
}

// trunk writes the features of packed patches (B·Tokens, PatchDim) into
// feats (B·Tokens, Dim), every intermediate taken from ws.
func (ws *Workspace) trunk(cfg Config, pos *tensor.Tensor, s Sites, patches, feats *tensor.Tensor) {
	t, d := cfg.Tokens(), cfg.Dim
	rows := patches.Shape[0]
	dh := d / cfg.Heads
	scale := float32(1 / math.Sqrt(float64(dh)))

	x := ws.matrix(&ws.x, rows, d)
	xn := ws.matrix(&ws.xn, rows, d) // each sublayer's normalized input, then attention's context
	y := ws.matrix(&ws.y, rows, d)
	qkv := ws.matrix(&ws.qkv, rows, 3*d)
	hid := ws.matrix(&ws.hid, rows, cfg.MLPRatio*d)
	scores := ws.matrix(&ws.scores, t, t)
	vt := ws.F32(dh * t)

	ws.linear(s, Site{Kind: Embed}, x, patches)
	for i := 0; i < rows; i++ {
		row := x.Data[i*d : (i+1)*d]
		for j, p := range pos.Data[i%t*d : (i%t+1)*d] {
			row[j] += p
		}
	}
	for b := 0; b < cfg.Depth; b++ {
		s.LayerNorm(Site{b, LN1}, xn, x)
		ws.linear(s, Site{b, QKV}, qkv, xn)
		for bi := 0; bi < rows/t; bi++ {
			img := qkv.Data[bi*t*3*d:]
			for h := 0; h < cfg.Heads; h++ {
				// vᵀ is the one operand no product reads in place: both
				// models' context products take it as their weight.
				v := img[2*d+h*dh:]
				for ti := 0; ti < t; ti++ {
					for j, x := range v[ti*3*d : ti*3*d+dh] {
						vt[j*t+ti] = x
					}
				}
				m := ws.mark()
				s.Attend(ws, Head{
					Q: img[h*dh:], K: img[d+h*dh:], Vt: vt, Ctx: xn.Data[bi*t*d+h*dh:],
					T: t, DH: dh, LD: 3 * d, LDC: d,
				}, scores, scale)
				ws.release(m)
			}
		}
		ws.linear(s, Site{b, Proj}, y, xn)
		x.AddInPlace(y)
		s.LayerNorm(Site{b, LN2}, xn, x)
		ws.linear(s, Site{b, MLP1}, hid, xn)
		s.GELU(hid)
		ws.linear(s, Site{b, MLP2}, y, hid)
		x.AddInPlace(y)
	}
	s.LayerNorm(Site{Kind: NormF}, feats, x)
}
