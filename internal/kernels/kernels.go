// Package kernels holds the micro-kernels at the bottom of every layer in
// iTask: the products of both serving models' inference forwards — GemmF32,
// every float product (gemm.go), and the int8 layers' kernels (range scan
// and quantize, per-row weight quantize into panels, the panel GEMM with its
// dequantizing store — i8.go) — their elementwise half, the residual add, softmax and
// GELU on one float32 exponential and LayerNorm (vecmath.go), and the fused
// multiply-add dot/axpy primitives the training GEMMs are built from.
//
// Each primitive has two implementations: a portable Go version and an
// AVX2 assembly version selected at startup by CPUID when the host supports
// AVX2+FMA. GemmI8 has a third, chosen by the same probe on hosts that also
// have AVX512_VNNI and AVX512VL: its products on the int8 dot-product
// instruction VPDPBUSD. The assembly carries the serving hot path; the Go
// version is the reference the tests compare it against. Every kernel an
// inference forward runs agrees with its reference bit for bit: int32
// accumulation is associative, and each float step is one correctly rounded
// IEEE single operation in the same order on both sides, sums taken lane by
// lane in one fixed tree. Only training's float32 dot/axpy family (this
// file) is held to float reassociation tolerance instead: its assembly fuses
// multiply and add.
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
// one-vector assembly kernels (Dot, Dot4, Axpy, Axpy4, DotI8) outweighs
// their throughput; shorter vectors stay on the unrolled Go path. The GEMMs
// (GemmF32, GemmI8) have no such cutoff: each takes a whole (m,k,n) product
// per call, so attention's 8-, 12- and 16-wide reductions run in assembly
// too.
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

// Dot returns Σ x[i]*y[i] over len(x) elements. y must be at least as long
// as x.
func Dot(x, y []float32) float32 {
	need(len(y) >= len(x))
	if useAsm && len(x) >= asmCutoff {
		return dotAsm(&x[0], &y[0], len(x))
	}
	return dotGo(x, y)
}

func dotGo(x, y []float32) float32 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Dot4 computes four dot products of x against b0..b3 in one pass, loading
// x once per step. All b slices must be at least len(x) long.
func Dot4(x, b0, b1, b2, b3 []float32) (s0, s1, s2, s3 float32) {
	n := len(x)
	need(len(b0) >= n && len(b1) >= n && len(b2) >= n && len(b3) >= n)
	if useAsm && len(x) >= asmCutoff {
		var out [4]float32
		dot4Asm(&x[0], &b0[0], &b1[0], &b2[0], &b3[0], len(x), &out[0])
		return out[0], out[1], out[2], out[3]
	}
	return dot4Go(x, b0, b1, b2, b3)
}

func dot4Go(x, b0, b1, b2, b3 []float32) (s0, s1, s2, s3 float32) {
	n := len(x)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	for i, xv := range x {
		s0 += xv * b0[i]
		s1 += xv * b1[i]
		s2 += xv * b2[i]
		s3 += xv * b3[i]
	}
	return
}

// Axpy accumulates y += a*x over len(x) elements. y must be at least as
// long as x.
func Axpy(a float32, x, y []float32) {
	need(len(y) >= len(x))
	if useAsm && len(x) >= asmCutoff {
		axpyAsm(a, &x[0], &y[0], len(x))
		return
	}
	axpyGo(a, x, y)
}

func axpyGo(a float32, x, y []float32) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += a * v
	}
}

// Axpy4 accumulates y += a[0]*x0 + a[1]*x1 + a[2]*x2 + a[3]*x3 in a single
// pass over y, the 4-way fused update the ikj GEMM kernel is built from:
// one load+store of y amortizes four multiply-add streams.
func Axpy4(a *[4]float32, x0, x1, x2, x3, y []float32) {
	n := len(y)
	need(len(x0) >= n && len(x1) >= n && len(x2) >= n && len(x3) >= n)
	if useAsm && len(y) >= asmCutoff {
		axpy4Asm(&a[0], &x0[0], &x1[0], &x2[0], &x3[0], &y[0], len(y))
		return
	}
	axpy4Go(a, x0, x1, x2, x3, y)
}

func axpy4Go(a *[4]float32, x0, x1, x2, x3, y []float32) {
	n := len(y)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	for i := range y {
		y[i] += a0*x0[i] + a1*x1[i] + a2*x2[i] + a3*x3[i]
	}
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
