//go:build !noasm

package kernels

// asmSupported reports AVX2+FMA availability (CPUID plus OS ymm-state
// support via XGETBV): the level every AVX2 body is gated on.
// vnniSupported reports, on top of that, AVX512_VNNI with AVX512F and
// AVX512VL and OS opmask and zmm-state support: GemmI8's VNNI body needs the
// EVEX VPDPBUSD on ymm registers, Y16–Y31 and opmask stores.
var (
	asmSupported  = detectAVX2FMA()
	vnniSupported = asmSupported && detectVNNI()
)

func init() { useAsm, useVNNI = asmSupported, vnniSupported }

func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
	)
	if c1&fmaBit == 0 || c1&osxsaveBit == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be set: the OS saves ymm state.
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return b7&avx2Bit != 0
}

// detectVNNI is called only once AVX2 and OSXSAVE are known present.
func detectVNNI() bool {
	_, b7, c7, _ := cpuid(7, 0)
	const (
		avx512fBit    = 1 << 16 // CPUID.7.0 EBX
		avx512vlBit   = 1 << 31 // CPUID.7.0 EBX
		avx512vnniBit = 1 << 11 // CPUID.7.0 ECX
	)
	if b7&avx512fBit == 0 || b7&avx512vlBit == 0 || c7&avx512vnniBit == 0 {
		return false
	}
	// XCR0 bits 5-7 (opmask, upper zmm0-15, zmm16-31): the OS saves the
	// EVEX state.
	xcr0, _ := xgetbv()
	return xcr0&0xe0 == 0xe0
}

// Implemented in kernels_amd64.s.

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func dotI8Asm(a, b *int8, n int) int32

//go:noescape
func hashBlocksAsm(lanes *uint64, p *byte, nblocks int)

// Implemented in i8_amd64.s.

//go:noescape
func rangeF32Asm(x *float32, rows, cols, ld int) (mn, mx float32)

//go:noescape
func quantizeI8Asm(dst *int8, src *float32, rows, cols, ld int, scale, fl, fh float32, zero int32)

//go:noescape
func quantizeRowsI8Asm(dst *int8, scales *float32, sums *int32, src *float32, rows, cols, ld int, fl, fh float32)

// Implemented in gemmi8_amd64.s: GemmI8's two assembly bodies. zc is the
// int32 the store multiplies each weight row sum by: za for AVX2, 128 + za
// for VNNI.

//go:noescape
func gemmI8Asm(out *float32, ldo int, a, wp *int8, wsums *int32, scales, bias *float32, m, k, n int, sa float32, zc int32, perChannel int)

//go:noescape
func gemmI8VNNIAsm(out *float32, ldo int, a, wp *int8, wsums *int32, scales, bias *float32, m, k, n int, sa float32, zc int32, perChannel int)

// Implemented in gemm_amd64.s.

//go:noescape
func gemmF32Asm(c, a, w, bias *float32, m, k, n, ldc, lda, ldw int)

// Implemented in vecmath_amd64.s.

//go:noescape
func addF32Asm(dst, src *float32, n int)

//go:noescape
func exp32Asm(dst, src *float32, n int)

//go:noescape
func geluF32Asm(dst, src *float32, n int)

//go:noescape
func softmaxF32Asm(x *float32, rows, cols int, scale float32)

//go:noescape
func layerNormF32Asm(dst, src, gamma, beta *float32, rows, d int, eps float32)
