package tensor

import (
	"fmt"

	"itask/internal/kernels"
)

// GEMM family: the training paths' products (the inference forwards call
// kernels.GemmF32 directly, and the int8 one kernels.GemmI8 on weight
// panels with its epilogue fused). All three product forms
// (MatMul, MatMulT, TMatMul) share one structure: a register-tiled kernel
// built from the fused dot/axpy micro-kernels in internal/kernels — a
// 4-wide k-unroll (Axpy4) for the row-streaming forms and a 4-wide n-unroll
// (Dot4) for the transposed form — runs over every output row on the
// calling goroutine (DESIGN.md §8). The kernels are dense: there is
// deliberately no zero-skip branch (a data-dependent branch in the inner
// loop defeats both the hardware prefetcher and the SIMD micro-kernels, and
// none of the call sites feed provably sparse operands).

// MatMul returns a @ b for a (M,K) matrix a and (K,N) matrix b.
func MatMul(a, b *Tensor) *Tensor {
	m, k, n := mmDims(a, b)
	out := New(m, n)
	matMulRows(out.Data, a.Data, b.Data, m, k, n)
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
	matMulRows(out.Data, a.Data, b.Data, m, k, n)
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

// matMulRows computes the m rows of out = a @ b with an ikj loop: each
// output row accumulates k axpy updates over contiguous rows of b, taken
// four at a time so one load+store pass over the output row carries four
// multiply-add streams. Output rows are fully overwritten.
func matMulRows(out, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		oi := out[i*n : (i+1)*n]
		for j := range oi {
			oi[j] = 0
		}
		ai := a[i*k : (i+1)*k]
		p := 0
		for ; p+4 <= k; p += 4 {
			alphas := [4]float32{ai[p], ai[p+1], ai[p+2], ai[p+3]}
			kernels.Axpy4(&alphas, b[p*n:], b[(p+1)*n:], b[(p+2)*n:], b[(p+3)*n:], oi)
		}
		for ; p < k; p++ {
			kernels.Axpy(ai[p], b[p*n:(p+1)*n], oi)
		}
	}
}

// MatMulT returns a @ bᵀ for a (M,K) matrix a and (N,K) matrix b.
// This form has unit-stride access for both operands and is the natural
// layout for Linear layers whose weight is stored (out,in).
func MatMulT(a, b *Tensor) *Tensor {
	m, k, n := mmtDims(a, b)
	out := New(m, n)
	matMulTRows(out.Data, a.Data, b.Data, m, k, n)
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

// matMulTRows computes the m rows of out = a @ bᵀ as dot products, four
// output columns at a time so each pass loads the a-row once against four
// rows of b.
func matMulTRows(out, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		ai := a[i*k : (i+1)*k]
		oi := out[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			s0, s1, s2, s3 := kernels.Dot4(ai, b[j*k:], b[(j+1)*k:], b[(j+2)*k:], b[(j+3)*k:])
			oi[j], oi[j+1], oi[j+2], oi[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			oi[j] = kernels.Dot(ai, b[j*k:(j+1)*k])
		}
	}
}

// TMatMul returns aᵀ @ b for a (K,M) matrix a and (K,N) matrix b, producing
// (M,N). This is the shape needed for weight gradients (xᵀ @ dy).
func TMatMul(a, b *Tensor) *Tensor {
	k, m, n := tmmDims(a, b)
	out := New(m, n)
	tMatMulRows(out.Data, a.Data, b.Data, k, m, n)
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

// tMatMulRows computes the m output rows of out = aᵀ @ b. Output row i
// accumulates a[p,i]*b[p,:] over p; the coefficients are strided loads but
// both streamed operands (b rows, out row) stay unit-stride, and four p
// steps share one pass over the output row.
func tMatMulRows(out, a, b []float32, k, m, n int) {
	for i := 0; i < m; i++ {
		oi := out[i*n : (i+1)*n]
		for j := range oi {
			oi[j] = 0
		}
		p := 0
		for ; p+4 <= k; p += 4 {
			alphas := [4]float32{a[p*m+i], a[(p+1)*m+i], a[(p+2)*m+i], a[(p+3)*m+i]}
			kernels.Axpy4(&alphas, b[p*n:], b[(p+1)*n:], b[(p+2)*n:], b[(p+3)*n:], oi)
		}
		for ; p < k; p++ {
			kernels.Axpy(a[p*m+i], b[p*n:(p+1)*n], oi)
		}
	}
}
