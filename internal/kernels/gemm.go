package kernels

// GemmF32 is every float product in the program: the float student's
// linear layers and both of its attention products at inference, one call
// per product, and training's products through tensor's MatMul family. It
// follows the vector kernels' bit rule (vecmath.go): each output
// accumulates element p of its reduction into lane p mod 8, one correctly
// rounded product and one add at a time, the eight lanes are added by
// laneSum, and the bias is one add after that.
// So an output's bits depend only on its a row and its w row — not on m,
// not on where the output falls in the assembly's register tile — and the
// AVX2 body (gemm_amd64.s), the noasm build and a non-amd64 host agree on
// every one. In this file every product that feeds an add is wrapped in
// float32(…), so no compiler may fuse it.

// GemmF32 computes the (m, n) product of an (m, k) matrix a with the
// transpose of an (n, k) matrix w, plus an optional bias, into c:
//
//	c[i*ldc+o] = Σ_p a[i*lda+p] * w[o*ldw+p]  (+ bias[o])
//
// Each operand is read or written in place at its own row stride (lda,
// ldw, ldc ≥ the row width), so a head's q and k are read from inside the
// fused qkv projection and its context written into the sublayer buffer.
// bias is nil or n values. Any k ≥ 0 runs in one call, k < 8 included.
func GemmF32(c, a, w, bias []float32, m, k, n, ldc, lda, ldw int) {
	need(fits(len(a), m, k, lda) && fits(len(w), n, k, ldw) && fits(len(c), m, n, ldc) &&
		(bias == nil || len(bias) >= n))
	if m == 0 || n == 0 {
		return
	}
	if useAsm {
		var b *float32
		if bias != nil {
			b = &bias[0]
		}
		var ap, wp *float32
		if k > 0 {
			ap, wp = &a[0], &w[0]
		}
		gemmF32Asm(&c[0], ap, wp, b, m, k, n, ldc, lda, ldw)
		return
	}
	gemmF32Go(c, a, w, bias, m, k, n, ldc, lda, ldw)
}

func gemmF32Go(c, a, w, bias []float32, m, k, n, ldc, lda, ldw int) {
	for i := 0; i < m; i++ {
		ai := a[i*lda : i*lda+k]
		ci := c[i*ldc : i*ldc+n]
		for o := range ci {
			v := dotLanes(ai, w[o*ldw:o*ldw+k])
			if bias != nil {
				v += bias[o]
			}
			ci[o] = v
		}
	}
}

// dotLanes is Σ a[p]·w[p] in the lane order: eight accumulators, element p
// into lane p mod 8, added by laneSum.
func dotLanes(a, w []float32) float32 {
	w = w[:len(a)]
	var s [8]float32
	p := 0
	for ; p+8 <= len(a); p += 8 {
		aa, ww := a[p:p+8], w[p:p+8]
		s[0] += float32(aa[0] * ww[0])
		s[1] += float32(aa[1] * ww[1])
		s[2] += float32(aa[2] * ww[2])
		s[3] += float32(aa[3] * ww[3])
		s[4] += float32(aa[4] * ww[4])
		s[5] += float32(aa[5] * ww[5])
		s[6] += float32(aa[6] * ww[6])
		s[7] += float32(aa[7] * ww[7])
	}
	for j, v := range a[p:] {
		s[j] += float32(v * w[p+j])
	}
	return laneSum(&s)
}
