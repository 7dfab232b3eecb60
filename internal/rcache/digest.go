package rcache

import (
	"itask/internal/kernels"

	"itask/internal/tensor"
)

// fnvOffset64 is the FNV-1a 64-bit offset basis — the digest seed and the
// value a nil tensor digests to.
const fnvOffset64 = kernels.FNVOffset64

// digestSeed folds the tensor shape into the hash seed with plain serial
// FNV-1a (shapes are three ints; no point vectorizing), so frames with the
// same data but different geometry digest apart.
func digestSeed(shape []int) uint64 {
	h := uint64(fnvOffset64)
	for _, d := range shape {
		h ^= uint64(uint32(d))
		h *= kernels.FNVPrime64
	}
	return h
}

// DigestImage content-hashes an image tensor — its shape and the bit
// patterns of its float data — with the multi-lane FNV-1a kernel
// (kernels.HashF32). Identical frames digest identically regardless of
// tensor identity; NaN payloads and signed zeros hash by bit pattern, so a
// bitwise-identical tensor always matches. Allocation-free. A nil tensor
// digests to the offset basis.
//
// This is digest v2: the lane-interleaved value differs from the serial
// FNV-1a digest v1 produced before the vectorized kernel existed. Digests
// only ever key in-process state (the result cache, gateway routing), so
// the change is safe — but anything persisting digests across versions
// must not assume v1 values.
func DigestImage(img *tensor.Tensor) uint64 {
	if img == nil {
		return fnvOffset64
	}
	return DigestPixels(img.Shape, img.Data)
}

// DigestPixels is DigestImage for a caller holding a decoded image that is
// not a tensor — the gateway, keying a JSON body it decoded only to route.
func DigestPixels(shape []int, data []float32) uint64 {
	return kernels.HashF32(digestSeed(shape), data)
}

// DigestFrame is DigestImage over wire bytes: payload is the raw
// little-endian float32 data of a binary detect frame, hashed without
// materializing a tensor. For any tensor t, DigestFrame(t.Shape, le(t.Data))
// == DigestImage(t) — that equivalence (pinned by tests, and guaranteed by
// kernels.HashWordsLE on every architecture) is what lets the gateway route
// binary requests by content digest straight off the wire. len(payload)
// must be a multiple of 4.
func DigestFrame(shape []int, payload []byte) uint64 {
	return kernels.HashWordsLE(digestSeed(shape), payload)
}
