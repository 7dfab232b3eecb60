package tensor

import (
	"fmt"

	"itask/internal/kernels"
)

// GEMM family: the training paths' products. Each form is one call of
// kernels.GemmF32, the kernel every inference product runs on, whose
// layout is MatMulT's: a times the transpose of a row-major b. MatMul and
// TMatMul hand it transposed copies of the operands it would otherwise read
// down columns. So every float product in the program follows GemmF32's one
// lane-order bit rule, and a trained model's bits do not depend on which
// kernel body (assembly, noasm build, non-amd64 host) ran (DESIGN.md §8).

// MatMul returns a @ b for a (M,K) matrix a and (K,N) matrix b.
func MatMul(a, b *Tensor) *Tensor {
	m, k, n := mmDims(a, b)
	out := New(m, n)
	gemm(out, a, b.Transpose(), m, k, n)
	return out
}

// MatMulInto computes out = a @ b, reusing out's storage.
// out must already have shape (M,N). No model calls it: it stays for the
// load driver's tensor.matmul_gflops probe (cmd/itask-load), which times it.
func MatMulInto(out, a, b *Tensor) {
	m, k, n := mmDims(a, b)
	if len(out.Shape) != 2 || out.Shape[0] != m || out.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto out shape %v, want (%d,%d)", out.Shape, m, n))
	}
	gemm(out, a, b.Transpose(), m, k, n)
}

func mmDims(a, b *Tensor) (m, k, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMul on shapes %v, %v (need matrices)", a.Shape, b.Shape))
	}
	if a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMul inner dim mismatch %v @ %v", a.Shape, b.Shape))
	}
	return a.Shape[0], a.Shape[1], b.Shape[1]
}

// MatMulT returns a @ bᵀ for a (M,K) matrix a and (N,K) matrix b.
// This form has unit-stride access for both operands and is the natural
// layout for Linear layers whose weight is stored (out,in).
func MatMulT(a, b *Tensor) *Tensor {
	m, k, n := mmtDims(a, b)
	out := New(m, n)
	gemm(out, a, b, m, k, n)
	return out
}

func mmtDims(a, b *Tensor) (m, k, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMulT on shapes %v, %v", a.Shape, b.Shape))
	}
	if a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulT inner dim mismatch %v @ %vᵀ", a.Shape, b.Shape))
	}
	return a.Shape[0], a.Shape[1], b.Shape[0]
}

// TMatMul returns aᵀ @ b for a (K,M) matrix a and (K,N) matrix b, producing
// (M,N). This is the shape needed for weight gradients (xᵀ @ dy).
func TMatMul(a, b *Tensor) *Tensor {
	k, m, n := tmmDims(a, b)
	out := New(m, n)
	gemm(out, a.Transpose(), b.Transpose(), m, k, n)
	return out
}

func tmmDims(a, b *Tensor) (k, m, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: TMatMul on shapes %v, %v", a.Shape, b.Shape))
	}
	if a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: TMatMul inner dim mismatch %vᵀ @ %v", a.Shape, b.Shape))
	}
	return a.Shape[0], a.Shape[1], b.Shape[1]
}

// gemm writes out = a @ wᵀ for a (m,k) matrix a and (n,k) matrix w, every
// operand packed at its own row width.
func gemm(out, a, w *Tensor, m, k, n int) {
	kernels.GemmF32(out.Data, a.Data, w.Data, nil, m, k, n, n, k, k)
}
