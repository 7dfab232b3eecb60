package rcache

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"itask/internal/kernels"
	"itask/internal/tensor"
)

func randImage(r *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = r.Float32()*2 - 1
	}
	return t
}

func framePayload(img *tensor.Tensor) []byte {
	b := make([]byte, 4*len(img.Data))
	for i, v := range img.Data {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return b
}

// DigestFrame over a tensor's wire encoding must equal DigestImage over the
// tensor itself: the gateway routes binary bodies by the former, shards key
// the result cache by the latter, and a mismatch would silently break
// shard-local cache affinity.
func TestDigestFrameMatchesDigestImage(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, shape := range [][]int{{3, 8, 8}, {3, 32, 32}, {3, 64, 64}, {1, 2, 2}} {
		img := randImage(r, shape...)
		img.Data[0] = float32(math.NaN())
		img.Data[1] = float32(math.Copysign(0, -1))
		di := DigestImage(img)
		df := DigestFrame(img.Shape, framePayload(img))
		if di != df {
			t.Fatalf("shape %v: DigestImage %x != DigestFrame %x", shape, di, df)
		}
	}
	// Shape feeds the seed: same payload, different geometry, different digest.
	a := randImage(r, 3, 8, 8)
	if DigestFrame([]int{3, 8, 8}, framePayload(a)) == DigestFrame([]int{8, 8, 3}, framePayload(a)) {
		t.Fatal("shape permutation not reflected in frame digest")
	}
}

// BenchmarkDigestImage compares digest v2 (multi-lane, vectorized where the
// host allows) against the serial FNV-1a loop digest v1 used before the
// kernel existed, on a 3×64×64 frame. The ratio, not absolute ns/op, is the
// number that matters; the live digest cost is rcache.digest_us.
func BenchmarkDigestImage(b *testing.B) {
	img := randImage(rand.New(rand.NewSource(1)), 3, 64, 64)
	bytes := int64(4 * len(img.Data))
	b.Run("v1_scalar", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			sinkDigest = kernels.HashF32Scalar(digestSeed(img.Shape), img.Data)
		}
	})
	b.Run("v2", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			sinkDigest = DigestImage(img)
		}
	})
	b.Run("v2_frame", func(b *testing.B) {
		payload := framePayload(img)
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			sinkDigest = DigestFrame(img.Shape, payload)
		}
	})
}

var sinkDigest uint64
