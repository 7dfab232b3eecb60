package quant

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"itask/internal/geom"
	"itask/internal/kernels"
	"itask/internal/tensor"
	"itask/internal/vit"
)

func TestQRange(t *testing.T) {
	cases := map[int][2]int32{
		8: {-128, 127},
		6: {-32, 31},
		4: {-8, 7},
	}
	for bits, want := range cases {
		lo, hi := qRange(bits)
		if lo != want[0] || hi != want[1] {
			t.Errorf("qRange(%d) = %d,%d", bits, lo, hi)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bits=1 should panic")
			}
		}()
		qRange(1)
	}()
}

func TestSymmetricRoundTripErrorBound(t *testing.T) {
	rng := tensor.NewRNG(1)
	f := func(seed uint8) bool {
		data := tensor.Randn(rng, 2, 64).Data
		for _, bits := range []int{4, 6, 8} {
			qp := SymmetricParams(data, bits)
			for _, v := range data {
				got := qp.Dequantize(qp.Quantize(v))
				if float64(abs32(got-v)) > float64(qp.Scale)/2+1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

func TestAsymmetricRoundTripErrorBound(t *testing.T) {
	rng := tensor.NewRNG(2)
	// Skewed positive data (post-GELU-like).
	data := make([]float32, 256)
	for i := range data {
		v := float32(rng.Norm())
		if v < 0 {
			v *= 0.1
		}
		data[i] = v
	}
	for _, bits := range []int{4, 6, 8} {
		qp := AsymmetricParams(data, bits)
		for _, v := range data {
			got := qp.Dequantize(qp.Quantize(v))
			if abs32(got-v) > qp.Scale/2+1e-6 {
				t.Fatalf("bits=%d: |%v - %v| > scale/2=%v", bits, got, v, qp.Scale/2)
			}
		}
	}
}

func TestAsymmetricBeatsSymmetricOnSkewedData(t *testing.T) {
	rng := tensor.NewRNG(3)
	data := make([]float32, 512)
	for i := range data {
		data[i] = float32(rng.Float64()) * 4 // all in [0,4)
	}
	sym := SymmetricParams(data, 8)
	asym := AsymmetricParams(data, 8)
	if asym.Scale >= sym.Scale {
		t.Errorf("asymmetric scale %v should beat symmetric %v on one-sided data", asym.Scale, sym.Scale)
	}
}

func TestPercentileClipsOutliers(t *testing.T) {
	data := make([]float32, 1000)
	for i := range data {
		data[i] = float32(i%10) * 0.1
	}
	data[0] = 1000 // outlier
	full := AsymmetricParams(data, 8)
	clipped := PercentileParams(data, 8, 0.99)
	if clipped.Scale >= full.Scale {
		t.Errorf("percentile calibration should shrink scale: %v vs %v", clipped.Scale, full.Scale)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("pct=0 should panic")
			}
		}()
		PercentileParams(data, 8, 0)
	}()
}

func TestAllZeroTensor(t *testing.T) {
	data := make([]float32, 16)
	qp := SymmetricParams(data, 8)
	if qp.Scale <= 0 {
		t.Error("zero tensor must still get a positive scale")
	}
	if got := qp.Dequantize(qp.Quantize(0)); got != 0 {
		t.Errorf("0 round trips to %v", got)
	}
}

func TestQuantizeWeightPerChannel(t *testing.T) {
	rng := tensor.NewRNG(4)
	w := tensor.Randn(rng, 1, 6, 10)
	// Give one row a much larger magnitude.
	for k := 0; k < 10; k++ {
		w.Data[k] *= 50
	}
	pc := QuantizeWeight(w, 8, true)
	pt := QuantizeWeight(w, 8, false)
	if len(pc.Scales) != 6 || len(pt.Scales) != 1 {
		t.Fatalf("scales: pc=%d pt=%d", len(pc.Scales), len(pt.Scales))
	}
	// Per-channel reconstruction must be better on the small rows.
	errPC := tensor.Add(pc.Dequantize(), tensor.Scale(w, -1)).Norm2()
	errPT := tensor.Add(pt.Dequantize(), tensor.Scale(w, -1)).Norm2()
	if errPC >= errPT {
		t.Errorf("per-channel error %v should beat per-tensor %v", errPC, errPT)
	}
	// Row sums correct.
	for o := 0; o < 6; o++ {
		var s int32
		for k := 0; k < 10; k++ {
			s += int32(pc.Q[o*10+k])
		}
		if s != pc.RowSums[o] {
			t.Fatalf("row sum %d wrong", o)
		}
	}
}

// linear is one dynamically quantized linear layer on x through
// linearInto: x under its own asymmetric range at actBits, the GEMM, the
// bias.
func linear(x *tensor.Tensor, qw QWeight, bias []float32, actBits int) *tensor.Tensor {
	out := tensor.New(x.Shape[0], qw.Out)
	linearInto(out, x, AsymmetricParams(x.Data, actBits), qw, bias, make([]int8, x.Size()))
	return out
}

func TestGEMMMatchesFloatReference(t *testing.T) {
	rng := tensor.NewRNG(5)
	x := tensor.Randn(rng, 1, 7, 12)
	w := tensor.Randn(rng, 0.5, 9, 12)
	bias := make([]float32, 9)
	for i := range bias {
		bias[i] = float32(rng.Norm())
	}
	want := tensor.MatMulT(x, w)
	want.AddRowVector(tensor.FromSlice(bias, 9))

	qw := QuantizeWeight(w, 8, true)
	got := linear(x, qw, bias, 8)
	// int8 dynamic quantization: expect close but not exact.
	maxErr := float32(0)
	for i := range got.Data {
		if e := abs32(got.Data[i] - want.Data[i]); e > maxErr {
			maxErr = e
		}
	}
	scaleOfInputs := x.AbsMax() * w.AbsMax()
	if maxErr > scaleOfInputs*0.1 {
		t.Errorf("int8 GEMM error %v too large (ref scale %v)", maxErr, scaleOfInputs)
	}
}

func TestGEMMLowerBitsHigherError(t *testing.T) {
	rng := tensor.NewRNG(6)
	x := tensor.Randn(rng, 1, 8, 16)
	w := tensor.Randn(rng, 0.5, 8, 16)
	want := tensor.MatMulT(x, w)
	var errs []float32
	for _, bits := range []int{8, 6, 4} {
		qw := QuantizeWeight(w, bits, true)
		got := linear(x, qw, nil, bits)
		var sum float64
		for i := range got.Data {
			d := float64(got.Data[i] - want.Data[i])
			sum += d * d
		}
		errs = append(errs, float32(math.Sqrt(sum)))
	}
	if !(errs[0] < errs[1] && errs[1] < errs[2]) {
		t.Errorf("quantization error should grow as bits shrink: %v", errs)
	}
}

// TestGEMMValidation: gemmInto panics on an inner-dimension mismatch, an
// output of the wrong shape and a bias of the wrong length.
func TestGEMMValidation(t *testing.T) {
	qw := QuantizeWeight(tensor.New(4, 5), 8, true)
	qa := &QActivation{Q: make([]int8, 10), QP: QParams{Scale: 1, Bits: 8}, Rows: 2, Cols: 5}
	cases := map[string]func(){
		"inner dim": func() { gemmInto(tensor.New(2, 4), &QActivation{Q: make([]int8, 6), Rows: 2, Cols: 3}, qw, nil) },
		"out rows":  func() { gemmInto(tensor.New(3, 4), qa, qw, nil) },
		"out cols":  func() { gemmInto(tensor.New(2, 5), qa, qw, nil) },
		"bias":      func() { gemmInto(tensor.New(2, 4), qa, qw, make([]float32, 3)) },
	}
	for name, call := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("gemmInto with a bad %s did not panic", name)
				}
			}()
			call()
		}()
	}
	gemmInto(tensor.New(2, 4), qa, qw, make([]float32, 4)) // and the right shapes do not
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{{Bits: 3}, {Bits: 16}, {Bits: 8, ActBits: 5}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v should fail", bad)
		}
	}
	if (Config{Bits: 8}).actBits() != 8 {
		t.Error("ActBits should default to Bits")
	}
}

func TestFromViTStructure(t *testing.T) {
	cfg := vit.TinyConfig(4)
	m := vit.New(cfg, tensor.NewRNG(7))
	qm, err := FromViT(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(qm.blocks) != cfg.Depth {
		t.Errorf("blocks = %d, want %d", len(qm.blocks), cfg.Depth)
	}
	if qm.WeightBytes() <= 0 {
		t.Error("weight bytes must be positive")
	}
	// int8 model must be roughly 4x smaller than float32 params.
	floatBytes := m.NumParams() * 4
	if qm.WeightBytes() >= floatBytes/2 {
		t.Errorf("quantized %dB vs float %dB: not compressed", qm.WeightBytes(), floatBytes)
	}
}

// TestQuantizedCloseToFloat is the central fidelity test: int8 inference
// must track the float model closely; int4 must degrade more.
func TestQuantizedCloseToFloat(t *testing.T) {
	cfg := vit.Config{
		ImageSize: 32, Channels: 3, PatchSize: 8,
		Dim: 32, Depth: 2, Heads: 4, MLPRatio: 2, Classes: 5,
	}
	rng := tensor.NewRNG(8)
	m := vit.New(cfg, rng)
	img := tensor.Randn(rng, 0.5, 3, 32, 32)
	patches := vit.Patchify(cfg, []*tensor.Tensor{img})
	ref := m.DetHead(m.Forward(patches, false), false)

	errFor := func(bits int) float64 {
		qm, err := FromViT(m, Config{Bits: bits, PerChannel: true})
		if err != nil {
			t.Fatal(err)
		}
		out := qm.DetHead(qm.Forward(patches))
		var sum float64
		for i := range out.Data {
			d := float64(out.Data[i] - ref.Data[i])
			sum += d * d
		}
		return math.Sqrt(sum / float64(len(out.Data)))
	}
	e8 := errFor(8)
	e4 := errFor(4)
	refScale := float64(ref.Norm2()) / math.Sqrt(float64(ref.Size()))
	if e8 > 0.25*refScale {
		t.Errorf("int8 RMS error %v too large vs signal %v", e8, refScale)
	}
	if e4 <= e8 {
		t.Errorf("int4 error %v should exceed int8 error %v", e4, e8)
	}
}

func TestQuantizedDeterministic(t *testing.T) {
	cfg := vit.TinyConfig(3)
	m := vit.New(cfg, tensor.NewRNG(9))
	qm, err := FromViT(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	img := tensor.Randn(tensor.NewRNG(10), 0.5, 3, cfg.ImageSize, cfg.ImageSize)
	d1 := qm.Detect(img, 0.1, 0.5)
	d2 := qm.Detect(img, 0.1, 0.5)
	if len(d1) != len(d2) {
		t.Fatal("quantized inference not deterministic")
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatal("quantized detections differ between runs")
		}
	}
}

func TestApproxVectorCloseToExact(t *testing.T) {
	cfg := vit.Config{
		ImageSize: 32, Channels: 3, PatchSize: 8,
		Dim: 32, Depth: 2, Heads: 4, MLPRatio: 2, Classes: 5,
	}
	m := vit.New(cfg, tensor.NewRNG(21))
	qm, err := FromViT(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	img := tensor.Randn(tensor.NewRNG(22), 0.5, 3, 32, 32)
	patches := vit.Patchify(cfg, []*tensor.Tensor{img})
	exact := qm.DetHead(qm.Forward(patches))
	qm.SetApproxVector(true)
	approxOut := qm.DetHead(qm.Forward(patches))
	qm.SetApproxVector(false)
	back := qm.DetHead(qm.Forward(patches))

	var diff, sig float64
	for i := range exact.Data {
		d := float64(approxOut.Data[i] - exact.Data[i])
		diff += d * d
		sig += float64(exact.Data[i]) * float64(exact.Data[i])
	}
	if math.Sqrt(diff) > 0.2*math.Sqrt(sig) {
		t.Errorf("approximate vector unit deviates too much: %.4f vs %.4f",
			math.Sqrt(diff), math.Sqrt(sig))
	}
	if !back.Equal(exact) {
		t.Error("toggling approx off did not restore exact inference")
	}
}

// TestDetectBatchIdenticalAtEveryWidth: the trunk's bits and the detections
// decoded from them do not depend on how many cores the process has — here a
// batch of 64 at widths 1, 2 and 4. Every kernel runs on its caller, so this
// guards against a width-dependent kernel (a split of the work, a grain
// sized by GOMAXPROCS) coming back.
func TestDetectBatchIdenticalAtEveryWidth(t *testing.T) {
	cfg := vit.Config{
		ImageSize: 32, Channels: 3, PatchSize: 8,
		Dim: 48, Depth: 3, Heads: 4, MLPRatio: 2, Classes: 5,
	}
	rng := tensor.NewRNG(23)
	qm, err := FromViT(vit.New(cfg, rng), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	imgs := make([]*tensor.Tensor, 64)
	for i := range imgs {
		imgs[i] = tensor.Randn(rng, 0.5, 3, 32, 32)
	}
	patches := vit.Patchify(cfg, imgs)
	var wantFeats []float32
	var wantDets [][]geom.Scored
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		feats := qm.Forward(patches).Data
		dets := qm.DetectBatch(imgs, 0.05, 0.5)
		runtime.GOMAXPROCS(prev)
		if wantFeats == nil {
			wantFeats, wantDets = feats, dets
			continue
		}
		for i := range feats {
			if math.Float32bits(feats[i]) != math.Float32bits(wantFeats[i]) {
				t.Fatalf("GOMAXPROCS=%d: feature %d = %v, at width 1 %v", procs, i, feats[i], wantFeats[i])
			}
		}
		if !reflect.DeepEqual(dets, wantDets) {
			t.Fatalf("GOMAXPROCS=%d: detections differ from width 1", procs)
		}
	}
}

// TestInt8ForwardIdenticalWithAndWithoutAsm: every kernel on the int8 path
// — range, quantize, GEMM, dequantize, LayerNorm, softmax, GELU — gives its
// Go reference's bits, so the trunk's features are byte-identical whether
// the assembly runs or not, at batch 1 and 8. On a noasm or non-amd64 build
// both runs are the Go path.
func TestInt8ForwardIdenticalWithAndWithoutAsm(t *testing.T) {
	cfg := vit.Config{
		ImageSize: 32, Channels: 3, PatchSize: 8,
		Dim: 48, Depth: 3, Heads: 4, MLPRatio: 2, Classes: 5,
	}
	rng := tensor.NewRNG(24)
	m := vit.New(cfg, rng)
	// A fresh LayerNorm is the identity affine map (gamma 1, beta 0); move
	// it off, so its multiply and add are inexact as in a trained model.
	for _, p := range m.Params() {
		if strings.HasSuffix(p.Name, ".gamma") || strings.HasSuffix(p.Name, ".beta") {
			for i := range p.W.Data {
				p.W.Data[i] += 0.3 * float32(rng.Norm())
			}
		}
	}
	qm, err := FromViT(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 8} {
		imgs := make([]*tensor.Tensor, batch)
		for i := range imgs {
			imgs[i] = tensor.Randn(rng, 0.5, 3, 32, 32)
		}
		patches := vit.Patchify(cfg, imgs)
		prev := kernels.SetAsmEnabled(false)
		want := qm.Forward(patches).Data
		kernels.SetAsmEnabled(true)
		got := qm.Forward(patches).Data
		kernels.SetAsmEnabled(prev)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("batch %d: feature %d = %v with the assembly, %v without", batch, i, got[i], want[i])
			}
		}
	}
}
