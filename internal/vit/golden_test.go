package vit

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"itask/internal/geom"
	"itask/internal/kernels"
	"itask/internal/nn"
	"itask/internal/tensor"
)

// TestFloatFeaturesGolden pins the float inference trunk's answers: the
// SHA-256 of the feature bits of a seeded TinyConfig model at batch 1 and
// 8. Every float kernel of the inference forward is bit-identical with the
// assembly on and off, so the digests hold on every build. A change that
// moves them changes what the float student answers and must say so.
func TestFloatFeaturesGolden(t *testing.T) {
	want := map[int]string{
		1: "0baddca083b70debae115e4e1a291997c6ee3da9149eedc8e7f29fb3e5724bc5",
		8: "75d9c61e79f56c31e0266174e65ba4d56b1b43cedc7ef1219decf0763073a7aa",
	}
	cfg := TinyConfig(4)
	rng := tensor.NewRNG(2024)
	m := perturbedModel(cfg, rng)
	imgs := make([]*tensor.Tensor, 8)
	for i := range imgs {
		imgs[i] = tensor.Randn(rng, 0.5, cfg.Channels, cfg.ImageSize, cfg.ImageSize)
	}
	for _, batch := range []int{1, 8} {
		feats := m.Forward(Patchify(cfg, imgs[:batch]), false)
		if got := featureDigest(feats.Data); got != want[batch] {
			t.Errorf("batch %d: float features digest %s, pinned %s", batch, got, want[batch])
		}
	}
}

// TestFloatForwardIdenticalWithAndWithoutAsm: every kernel on the float
// inference path — GemmF32, LayerNorm, softmax, GELU — gives its Go
// reference's bits, so the features and the detection head's output are
// byte-identical whether the assembly runs or not, at batch 1 and 8, on the
// float student's geometry. On a noasm or non-amd64 build both runs are the
// Go path.
func TestFloatForwardIdenticalWithAndWithoutAsm(t *testing.T) {
	cfg := Config{
		ImageSize: 32, Channels: 3, PatchSize: 8,
		Dim: 32, Depth: 2, Heads: 4, MLPRatio: 2, Classes: 5,
	}
	rng := tensor.NewRNG(25)
	m := perturbedModel(cfg, rng)
	for _, batch := range []int{1, 8} {
		imgs := make([]*tensor.Tensor, batch)
		for i := range imgs {
			imgs[i] = tensor.Randn(rng, 0.5, 3, 32, 32)
		}
		patches := Patchify(cfg, imgs)
		forward := func() []float32 {
			feats := m.Forward(patches, false)
			return append(feats.Data, m.DetHead(feats, false).Data...)
		}
		prev := kernels.SetAsmEnabled(false)
		want := forward()
		kernels.SetAsmEnabled(true)
		got := forward()
		kernels.SetAsmEnabled(prev)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("batch %d: output %d = %v with the assembly, %v without", batch, i, got[i], want[i])
			}
		}
	}
}

// TestTrainingIdenticalWithAndWithoutAsm: training is bit-identical with
// the assembly on and off. A few Adam steps of a seeded TinyConfig model on
// a seeded batch, through the detection and classification losses, leave
// every parameter with the same bits either way, so a trained checkpoint
// does not depend on which kernel body ran.
func TestTrainingIdenticalWithAndWithoutAsm(t *testing.T) {
	cfg := TinyConfig(3)
	train := func(asm bool) []*nn.Param {
		defer kernels.SetAsmEnabled(kernels.SetAsmEnabled(asm))
		rng := tensor.NewRNG(37)
		m := New(cfg, rng)
		imgs := make([]*tensor.Tensor, 4)
		targets := make([]DetTarget, len(imgs))
		labels := make([]int, len(imgs))
		for i := range imgs {
			imgs[i] = tensor.Randn(rng, 0.5, cfg.Channels, cfg.ImageSize, cfg.ImageSize)
			labels[i] = i % cfg.Classes
			targets[i] = EncodeTargets(cfg, []Object{{
				Box:   geom.Box{X: 0.2 + 0.15*float64(i), Y: 0.7 - 0.1*float64(i), W: 0.3, H: 0.2},
				Class: labels[i],
			}})
		}
		patches := Patchify(cfg, imgs)
		opt := nn.NewAdam(0.01)
		for step := 0; step < 4; step++ {
			feats := m.Forward(patches, true)
			_, dDet := DetLoss(cfg, m.DetHead(feats, true), targets, DefaultDetLossWeights())
			_, dCls := nn.CrossEntropy(m.ClsHead(feats, true), labels)
			m.Backward(dDet, dCls)
			opt.Step(m.Params())
		}
		return m.Params()
	}
	want, got := train(false), train(true)
	for i, p := range want {
		for j, w := range p.W.Data {
			if g := got[i].W.Data[j]; math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("%s[%d] = %v after training with the assembly, %v without", p.Name, j, g, w)
			}
		}
	}
}

// perturbedModel is a fresh model with its LayerNorms moved off the
// identity, so their affine step is inexact as in a trained model.
func perturbedModel(cfg Config, rng *tensor.RNG) *Model {
	m := New(cfg, rng)
	for _, p := range m.Params() {
		if strings.HasSuffix(p.Name, ".gamma") || strings.HasSuffix(p.Name, ".beta") {
			for i := range p.W.Data {
				p.W.Data[i] += 0.3 * float32(rng.Norm())
			}
		}
	}
	return m
}

// featureDigest is the hex SHA-256 of the little-endian float32 bits.
func featureDigest(data []float32) string {
	h := sha256.New()
	var b [4]byte
	for _, v := range data {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
