// Package kernels holds the micro-kernels at the bottom of every layer in
// iTask: GemmF32, every float product of training and of both serving
// models' inference forwards (gemm.go); the int8 layers' kernels (range
// scan and quantize, per-row weight quantize into panels, the panel GEMM
// with its dequantizing store — i8.go); and the forwards' elementwise half,
// the residual add, softmax and GELU on one float32 exponential and
// LayerNorm (vecmath.go).
//
// Each primitive has two implementations: a portable Go version and an
// AVX2 assembly version selected at startup by CPUID when the host supports
// AVX2+FMA. GemmI8 has a third, chosen by the same probe on hosts that also
// have AVX512_VNNI and AVX512VL: its products on the int8 dot-product
// instruction VPDPBUSD. The assembly carries the hot paths; the Go version
// is the reference the tests compare it against. Every kernel agrees with
// its reference bit for bit: int32 accumulation is associative, and each
// float step is one correctly rounded IEEE single operation in the same
// order on both sides, sums taken lane by lane in one fixed tree.
//
// The package is dependency-free: internal/tensor, internal/quant and
// internal/vit run on its kernels, internal/rcache on its hash, and the
// serving layer reports GemmI8Body. Keep it a leaf.
package kernels

// The body each kernel runs is chosen by two switches, both set once at init
// by the amd64 feature probe. useAsm selects the assembly over the Go
// reference for every kernel (the AVX2+FMA bodies); useVNNI, consulted only
// while useAsm is on, selects GemmI8's VNNI body over its AVX2 one. Tests
// flip them to run every case through each body: useAsm through
// SetAsmEnabled, useVNNI directly.
var useAsm, useVNNI bool

// SetAsmEnabled forces the implementation choice; it returns the previous
// setting. Enabling has no effect on hosts without AVX2+FMA; disabling turns
// off every assembly body, GemmI8's VNNI one included. Only tests and
// benchmarks should call this.
func SetAsmEnabled(on bool) bool {
	prev := useAsm
	useAsm = on && asmSupported
	return prev
}

// GemmI8Body names the body GemmI8 runs now: "vnni", "avx2" or "go".
func GemmI8Body() string {
	switch {
	case useAsm && useVNNI:
		return "vnni"
	case useAsm:
		return "avx2"
	}
	return "go"
}

// asmCutoff is the vector length below which the call overhead of the
// one-vector assembly kernel DotI8 outweighs its throughput; shorter
// vectors stay on the unrolled Go path. The GEMMs (GemmF32, GemmI8) have no
// such cutoff: each takes a whole (m,k,n) product per call, so attention's
// 8-, 12- and 16-wide reductions run in assembly too.
const asmCutoff = 16

// need panics unless ok — that every operand is at least as long as its
// kernel will read or write. The assembly takes base pointers and a count,
// so the check the compiler would put on a Go slice expression has to be
// made here.
func need(ok bool) {
	if !ok {
		panic("kernels: operand shorter than the kernel reads or writes")
	}
}

// fits reports whether a (rows, cols) block at row stride ld lies within
// size elements — need's condition for a strided operand.
func fits(size, rows, cols, ld int) bool {
	return rows >= 0 && cols >= 0 && ld >= cols && (rows == 0 || cols == 0 || size >= (rows-1)*ld+cols)
}

// DotI8 returns Σ int32(a[i])*int32(b[i]) with exact int32 accumulation —
// the inner product of the quantized GEMM. b must be at least len(a) long.
func DotI8(a, b []int8) int32 {
	need(len(b) >= len(a))
	if useAsm && len(a) >= asmCutoff {
		return dotI8Asm(&a[0], &b[0], len(a))
	}
	return dotI8Go(a, b)
}

func dotI8Go(a, b []int8) int32 {
	b = b[:len(a)]
	var s0, s1, s2, s3 int32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += int32(a[i]) * int32(b[i])
		s1 += int32(a[i+1]) * int32(b[i+1])
		s2 += int32(a[i+2]) * int32(b[i+2])
		s3 += int32(a[i+3]) * int32(b[i+3])
	}
	for ; i < len(a); i++ {
		s0 += int32(a[i]) * int32(b[i])
	}
	return s0 + s1 + s2 + s3
}
