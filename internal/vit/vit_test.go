package vit

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"itask/internal/geom"
	"itask/internal/nn"
	"itask/internal/tensor"
)

func TestConfigValidate(t *testing.T) {
	good := TinyConfig(3)
	if err := good.Validate(); err != nil {
		t.Fatalf("TinyConfig invalid: %v", err)
	}
	bad := []Config{
		{},
		{ImageSize: 33, Channels: 3, PatchSize: 4, Dim: 8, Depth: 1, Heads: 2, MLPRatio: 4, Classes: 2},
		{ImageSize: 32, Channels: 3, PatchSize: 4, Dim: 9, Depth: 1, Heads: 2, MLPRatio: 4, Classes: 2},
		{ImageSize: 32, Channels: 3, PatchSize: 4, Dim: 8, Depth: 1, Heads: 2, MLPRatio: 4, Classes: 0},
		{ImageSize: 32, Channels: 3, PatchSize: 4, Dim: 8, Depth: 1, Heads: 2, MLPRatio: 4, Classes: 2, Dropout: 1.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d passed validation: %+v", i, c)
		}
	}
}

func TestConfigDerived(t *testing.T) {
	c := TeacherConfig(5)
	if c.Grid() != 8 || c.Tokens() != 64 {
		t.Errorf("grid/tokens = %d/%d", c.Grid(), c.Tokens())
	}
	if c.PatchDim() != 3*4*4 {
		t.Errorf("patch dim = %d", c.PatchDim())
	}
	if c.DetWidth() != 10 {
		t.Errorf("det width = %d", c.DetWidth())
	}
}

func TestWorkloadAccounting(t *testing.T) {
	c := StudentConfig(4)
	w := c.Workload()
	// patch embed + 6 GEMMs per block + 2 heads
	want := 1 + 6*c.Depth + 2
	if len(w) != want {
		t.Fatalf("workload has %d GEMMs, want %d", len(w), want)
	}
	var macs int64
	for _, g := range w {
		if g.M <= 0 || g.K <= 0 || g.N <= 0 || g.Repeat <= 0 {
			t.Fatalf("degenerate GEMM %+v", g)
		}
		macs += g.MACs()
	}
	if macs != c.TotalMACs() {
		t.Error("TotalMACs disagrees with sum over Workload")
	}
	// Teacher must be strictly bigger than student.
	if TeacherConfig(4).TotalMACs() <= c.TotalMACs() {
		t.Error("teacher should cost more MACs than student")
	}
}

func TestPatchify(t *testing.T) {
	cfg := Config{ImageSize: 4, Channels: 2, PatchSize: 2, Dim: 8, Depth: 1, Heads: 2, MLPRatio: 2, Classes: 2}
	img := tensor.New(2, 4, 4)
	for i := range img.Data {
		img.Data[i] = float32(i)
	}
	p := Patchify(cfg, []*tensor.Tensor{img})
	if p.Shape[0] != 4 || p.Shape[1] != 8 {
		t.Fatalf("patchify shape %v", p.Shape)
	}
	// Patch (0,0), channel 0 holds pixels (0,0),(0,1),(1,0),(1,1) = 0,1,4,5;
	// channel 1 holds 16,17,20,21.
	want := []float32{0, 1, 4, 5, 16, 17, 20, 21}
	for i, v := range want {
		if p.At(0, i) != v {
			t.Fatalf("patch0[%d] = %v, want %v (row %v)", i, p.At(0, i), v, p.Row(0).Data)
		}
	}
	// Second patch starts at x=2: pixels 2,3,6,7.
	if p.At(1, 0) != 2 || p.At(1, 3) != 7 {
		t.Errorf("patch1 = %v", p.Row(1).Data)
	}
}

func TestModelForwardShapes(t *testing.T) {
	cfg := TinyConfig(3)
	rng := tensor.NewRNG(1)
	m := New(cfg, rng)
	imgs := []*tensor.Tensor{
		tensor.Randn(rng, 1, cfg.Channels, cfg.ImageSize, cfg.ImageSize),
		tensor.Randn(rng, 1, cfg.Channels, cfg.ImageSize, cfg.ImageSize),
	}
	patches := Patchify(cfg, imgs)
	feats := m.Forward(patches, false)
	if feats.Shape[0] != 2*cfg.Tokens() || feats.Shape[1] != cfg.Dim {
		t.Fatalf("feats shape %v", feats.Shape)
	}
	det := m.DetHead(feats, false)
	if det.Shape[0] != 2*cfg.Tokens() || det.Shape[1] != cfg.DetWidth() {
		t.Fatalf("det shape %v", det.Shape)
	}
	cls := m.ClsHead(feats, false)
	if cls.Shape[0] != 2 || cls.Shape[1] != cfg.Classes {
		t.Fatalf("cls shape %v", cls.Shape)
	}
}

func TestModelDeterministicForward(t *testing.T) {
	cfg := TinyConfig(2)
	m1 := New(cfg, tensor.NewRNG(9))
	m2 := New(cfg, tensor.NewRNG(9))
	img := tensor.Randn(tensor.NewRNG(3), 1, cfg.Channels, cfg.ImageSize, cfg.ImageSize)
	p := Patchify(cfg, []*tensor.Tensor{img})
	f1 := m1.Forward(p, false)
	f2 := m2.Forward(p, false)
	if !f1.Equal(f2) {
		t.Error("same seed must give identical models and outputs")
	}
}

// detBits runs the inference forward and detection head on a batch and
// returns the head's output bits, one (Tokens × DetWidth) block per image.
func detBits(m *Model, imgs []*tensor.Tensor) []uint32 {
	out := m.DetHead(m.Forward(Patchify(m.Cfg, imgs), false), false)
	bits := make([]uint32, len(out.Data))
	for i, v := range out.Data {
		bits[i] = math.Float32bits(v)
	}
	return bits
}

func sameBits(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatchRowsDoNotInteract: the float student answers a frame with the
// same bits alone and as any row of a batch (the serve tier coalesces
// whatever queued, and the load driver's oracle holds the student to its
// lone answer exactly), and a batch of 64 with the same bits at every
// width — a guard against a width-dependent kernel coming back.
func TestBatchRowsDoNotInteract(t *testing.T) {
	cfg := Config{
		ImageSize: 32, Channels: 3, PatchSize: 8,
		Dim: 32, Depth: 2, Heads: 4, MLPRatio: 2, Classes: 5,
	}
	rng := tensor.NewRNG(33)
	m := New(cfg, rng)
	imgs := make([]*tensor.Tensor, 64)
	for i := range imgs {
		imgs[i] = tensor.Randn(rng, 0.5, 3, 32, 32)
	}
	per := cfg.Tokens() * cfg.DetWidth()
	for _, batch := range []int{2, 3, 8} {
		together := detBits(m, imgs[:batch])
		for i := 0; i < batch; i++ {
			if !sameBits(detBits(m, imgs[i:i+1]), together[i*per:(i+1)*per]) {
				t.Fatalf("image %d answers differently alone and as row %d of a batch of %d", i, i, batch)
			}
		}
	}
	want := detBits(m, imgs)
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got := detBits(m, imgs)
		runtime.GOMAXPROCS(prev)
		if !sameBits(got, want) {
			t.Fatalf("GOMAXPROCS=%d: a batch of 64 answers differently than at the host's width", procs)
		}
	}
}

// TestModelTrainingReducesLoss is the key end-to-end sanity check: a tiny
// model must be able to overfit a single synthetic example.
func TestModelTrainingReducesLoss(t *testing.T) {
	cfg := TinyConfig(2)
	rng := tensor.NewRNG(5)
	m := New(cfg, rng)
	img := tensor.Randn(rng, 1, cfg.Channels, cfg.ImageSize, cfg.ImageSize)
	patches := Patchify(cfg, []*tensor.Tensor{img})
	objects := []Object{{Box: geom.Box{X: 0.3, Y: 0.6, W: 0.2, H: 0.3}, Class: 1}}
	tgt := EncodeTargets(cfg, objects)
	opt := nn.NewAdam(0.01)
	var first, last float32
	for step := 0; step < 60; step++ {
		feats := m.Forward(patches, true)
		det := m.DetHead(feats, true)
		loss, grad := DetLoss(cfg, det, []DetTarget{tgt}, DefaultDetLossWeights())
		if step == 0 {
			first = loss
		}
		last = loss
		m.Backward(grad, nil)
		opt.Step(m.Params())
	}
	if last >= first*0.5 {
		t.Errorf("training did not reduce loss: first %v, last %v", first, last)
	}
	// After overfitting, decoding should recover the object.
	feats := m.Forward(patches, false)
	det := m.DetHead(feats, false)
	dets := Decode(cfg, det, 0.5, 0.5)
	if len(dets) != 1 {
		t.Fatalf("decoded %d objects, want 1", len(dets))
	}
	if dets[0].Class != 1 {
		t.Errorf("decoded class %d, want 1", dets[0].Class)
	}
	if geom.IoU(dets[0].Box, objects[0].Box) < 0.4 {
		t.Errorf("decoded box IoU too low: %v vs %v", dets[0].Box, objects[0].Box)
	}
}

func TestEncodeTargets(t *testing.T) {
	cfg := TinyConfig(3) // 16px, patch 8 -> 2x2 grid
	objs := []Object{
		{Box: geom.Box{X: 0.25, Y: 0.25, W: 0.3, H: 0.3}, Class: 2}, // cell (0,0)
		{Box: geom.Box{X: 0.9, Y: 0.9, W: 0.1, H: 0.1}, Class: 0},   // cell (1,1)
	}
	tgt := EncodeTargets(cfg, objs)
	if tgt.Obj[0] != 1 || tgt.Class[0] != 2 {
		t.Errorf("cell 0: obj=%v class=%d", tgt.Obj[0], tgt.Class[0])
	}
	if tgt.Obj[3] != 1 || tgt.Class[3] != 0 {
		t.Errorf("cell 3: obj=%v class=%d", tgt.Obj[3], tgt.Class[3])
	}
	if tgt.Obj[1] != 0 || tgt.Class[1] != -1 {
		t.Errorf("cell 1 should be background")
	}
	// Fractional offsets: 0.25*2 = 0.5 within cell 0.
	if math.Abs(float64(tgt.Box[0][0])-0.5) > 1e-6 {
		t.Errorf("fx = %v, want 0.5", tgt.Box[0][0])
	}
}

func TestEncodeTargetsCollisionLargerWins(t *testing.T) {
	cfg := TinyConfig(3)
	objs := []Object{
		{Box: geom.Box{X: 0.2, Y: 0.2, W: 0.1, H: 0.1}, Class: 0},
		{Box: geom.Box{X: 0.3, Y: 0.3, W: 0.4, H: 0.4}, Class: 1}, // same cell, larger
	}
	tgt := EncodeTargets(cfg, objs)
	if tgt.Class[0] != 1 {
		t.Errorf("larger object should win the cell, got class %d", tgt.Class[0])
	}
	// Order independence.
	tgt2 := EncodeTargets(cfg, []Object{objs[1], objs[0]})
	if tgt2.Class[0] != 1 {
		t.Error("collision resolution must be order-independent")
	}
}

func TestEncodeTargetsOutsideImageIgnored(t *testing.T) {
	cfg := TinyConfig(2)
	tgt := EncodeTargets(cfg, []Object{{Box: geom.Box{X: 1.5, Y: 0.5, W: 0.1, H: 0.1}, Class: 0}})
	for _, o := range tgt.Obj {
		if o != 0 {
			t.Error("object outside image must not produce a target")
		}
	}
}

func TestDetLossGradientNumeric(t *testing.T) {
	cfg := TinyConfig(2)
	rng := tensor.NewRNG(7)
	out := tensor.Randn(rng, 1, cfg.Tokens(), cfg.DetWidth())
	tgt := EncodeTargets(cfg, []Object{{Box: geom.Box{X: 0.3, Y: 0.7, W: 0.2, H: 0.2}, Class: 1}})
	w := DefaultDetLossWeights()
	_, grad := DetLoss(cfg, out, []DetTarget{tgt}, w)
	const eps = 1e-3
	for i := 0; i < out.Size(); i++ {
		orig := out.Data[i]
		out.Data[i] = orig + eps
		lp, _ := DetLoss(cfg, out, []DetTarget{tgt}, w)
		out.Data[i] = orig - eps
		lm, _ := DetLoss(cfg, out, []DetTarget{tgt}, w)
		out.Data[i] = orig
		num := float64(lp-lm) / (2 * eps)
		ana := float64(grad.Data[i])
		d := math.Abs(num - ana)
		den := math.Max(math.Abs(num), math.Abs(ana))
		if den > 0.05 && d/den > 0.05 {
			t.Fatalf("DetLoss grad[%d]: numeric %v vs analytic %v", i, num, ana)
		}
		if den <= 0.05 && d > 5e-3 {
			t.Fatalf("DetLoss grad[%d]: numeric %v vs analytic %v (abs)", i, num, ana)
		}
	}
}

func TestDecodeThreshold(t *testing.T) {
	cfg := TinyConfig(2)
	out := tensor.New(cfg.Tokens(), cfg.DetWidth())
	// All objectness logits very negative -> no detections.
	for i := 0; i < cfg.Tokens(); i++ {
		out.Set(-10, i, 0)
	}
	if dets := Decode(cfg, out, 0.3, 0.5); len(dets) != 0 {
		t.Errorf("expected no detections, got %d", len(dets))
	}
	// One strong cell.
	out.Set(10, 3, 0)
	out.Set(5, 3, 5+1) // class 1
	dets := Decode(cfg, out, 0.3, 0.5)
	if len(dets) != 1 || dets[0].Class != 1 {
		t.Fatalf("dets = %+v", dets)
	}
	// Cell 3 of a 2x2 grid is (gy=1, gx=1): box center in right-bottom quadrant.
	if dets[0].Box.X <= 0.5 || dets[0].Box.Y <= 0.5 {
		t.Errorf("decoded center %v,%v not in bottom-right cell", dets[0].Box.X, dets[0].Box.Y)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	cfg := TinyConfig(3)
	m1 := New(cfg, tensor.NewRNG(11))
	m2 := New(cfg, tensor.NewRNG(22))
	var buf bytes.Buffer
	if err := SaveParams(&buf, m1.Params()); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&buf, m2.Params()); err != nil {
		t.Fatal(err)
	}
	p1, p2 := m1.Params(), m2.Params()
	for i := range p1 {
		if !p1[i].W.Equal(p2[i].W) {
			t.Fatalf("param %q differs after round trip", p1[i].Name)
		}
	}
}

func TestCheckpointRejectsMismatchedModel(t *testing.T) {
	m1 := New(TinyConfig(3), tensor.NewRNG(1))
	m2 := New(TinyConfig(4), tensor.NewRNG(1)) // different class count
	var buf bytes.Buffer
	if err := SaveParams(&buf, m1.Params()); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&buf, m2.Params()); err == nil {
		t.Fatal("loading into mismatched model must fail")
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	m := New(TinyConfig(2), tensor.NewRNG(1))
	if err := LoadParams(bytes.NewReader([]byte("NOPE....")), m.Params()); err == nil {
		t.Fatal("garbage magic must fail")
	}
}

func TestCloneWeightsTo(t *testing.T) {
	cfg := TinyConfig(2)
	a := New(cfg, tensor.NewRNG(1))
	b := New(cfg, tensor.NewRNG(2))
	if err := a.CloneWeightsTo(b); err != nil {
		t.Fatal(err)
	}
	img := tensor.Randn(tensor.NewRNG(3), 1, cfg.Channels, cfg.ImageSize, cfg.ImageSize)
	p := Patchify(cfg, []*tensor.Tensor{img})
	if !a.Forward(p, false).Equal(b.Forward(p, false)) {
		t.Error("cloned model output differs")
	}
	if err := a.CloneWeightsTo(New(TinyConfig(3), tensor.NewRNG(1))); err == nil {
		t.Error("mismatched clone must fail")
	}
}

func TestSaveLoadFile(t *testing.T) {
	cfg := TinyConfig(2)
	m := New(cfg, tensor.NewRNG(4))
	path := t.TempDir() + "/model.ckpt"
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	m2 := New(cfg, tensor.NewRNG(5))
	if err := m2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if !m.Embed.Weight.W.Equal(m2.Embed.Weight.W) {
		t.Error("file round trip lost weights")
	}
}

func TestNumParamsStudentSmallerThanTeacher(t *testing.T) {
	s := New(StudentConfig(4), tensor.NewRNG(1))
	te := New(TeacherConfig(4), tensor.NewRNG(1))
	if s.NumParams() >= te.NumParams() {
		t.Errorf("student %d params should be < teacher %d", s.NumParams(), te.NumParams())
	}
}
