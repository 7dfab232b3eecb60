package quant

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"itask/internal/tensor"
	"itask/internal/vit"
)

// TestInt8FeaturesGolden pins the int8 trunk's answers: the SHA-256 of the
// feature bits of a seeded TinyConfig model at batch 1 and 8. The int8 path
// is bit-identical with the assembly on and off, so the digests hold on
// every build. A change that moves them changes what the quantized
// generalist answers and must say so.
func TestInt8FeaturesGolden(t *testing.T) {
	want := map[int]string{
		1: "2b6b5105adee24c994ea80b3e009237c9985a417167f9f4bb3208fbab47d958b",
		8: "21a04262a0f961e334ed81989562e27000efbc9563e8dc255236560f49d340b5",
	}
	cfg := vit.TinyConfig(4)
	rng := tensor.NewRNG(2024)
	m := vit.New(cfg, rng)
	// Move the LayerNorms off the identity so their affine step is inexact.
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
	imgs := make([]*tensor.Tensor, 8)
	for i := range imgs {
		imgs[i] = tensor.Randn(rng, 0.5, cfg.Channels, cfg.ImageSize, cfg.ImageSize)
	}
	for _, batch := range []int{1, 8} {
		feats := qm.Forward(vit.Patchify(cfg, imgs[:batch]))
		if got := featureDigest(feats.Data); got != want[batch] {
			t.Errorf("batch %d: int8 features digest %s, pinned %s", batch, got, want[batch])
		}
	}
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
