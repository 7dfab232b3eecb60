//go:build !noasm

// AVX2 bodies of the int8 linear layer's micro-kernels (i8.go). No FMA and
// no reciprocal anywhere: each float step is the same single IEEE operation
// the Go reference performs, so the two agree bit for bit.

#include "textflag.h"

// func rangeF32Asm(x *float32, n int) (mn, mx float32)
//
// n is a positive multiple of 8. VMINPS/VMAXPS return their second source
// when either is a NaN, so with the running value in that slot a NaN in the
// data is skipped, as the reference's comparisons skip it.
TEXT ·rangeF32Asm(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	VXORPS Y0, Y0, Y0    // min, chain 0
	VXORPS Y1, Y1, Y1    // max, chain 0
	VXORPS Y2, Y2, Y2    // min, chain 1
	VXORPS Y3, Y3, Y3    // max, chain 1
	MOVQ CX, DX
	SHRQ $4, DX
	JZ   rng_step8
rng_loop16:
	VMOVUPS (SI), Y4
	VMOVUPS 32(SI), Y5
	VMINPS Y0, Y4, Y0
	VMAXPS Y1, Y4, Y1
	VMINPS Y2, Y5, Y2
	VMAXPS Y3, Y5, Y3
	ADDQ $64, SI
	DECQ DX
	JNZ  rng_loop16
rng_step8:
	TESTQ $8, CX
	JZ   rng_reduce
	VMOVUPS (SI), Y4
	VMINPS Y0, Y4, Y0
	VMAXPS Y1, Y4, Y1
rng_reduce:
	// Every lane holds +0 or a value of the sign it tracks, never a NaN, so
	// the order of the remaining steps cannot change the result.
	VMINPS Y2, Y0, Y0
	VMAXPS Y3, Y1, Y1
	VEXTRACTF128 $1, Y0, X2
	VEXTRACTF128 $1, Y1, X3
	VMINPS X2, X0, X0
	VMAXPS X3, X1, X1
	VPSHUFD $0x4E, X0, X2
	VPSHUFD $0x4E, X1, X3
	VMINPS X2, X0, X0
	VMAXPS X3, X1, X1
	VPSHUFD $0xB1, X0, X2
	VPSHUFD $0xB1, X1, X3
	VMINPS X2, X0, X0
	VMAXPS X3, X1, X1
	VMOVSS X0, mn+16(FP)
	VMOVSS X1, mx+20(FP)
	VZEROUPPER
	RET

// func quantizeI8Asm(dst *int8, src *float32, n int, scale, fl, fh float32, zero int32)
//
// n is a positive multiple of 8. Per 8 floats: divide, clamp to [fl, fh]
// (NaN to fl: VMAXPS returns its second source, fl, on a NaN), convert with
// the default round-to-nearest-even, add the zero point, narrow 32 → 16 → 8
// bits (the values already fit, so the saturating packs only narrow).
TEXT ·quantizeI8Asm(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS scale+24(FP), Y4
	VBROADCASTSS fl+28(FP), Y5
	VBROADCASTSS fh+32(FP), Y6
	MOVL zero+36(FP), AX
	VMOVD AX, X7
	VPBROADCASTD X7, Y7
	SHRQ $3, CX
qi8_loop8:
	VMOVUPS (SI), Y0
	VDIVPS Y4, Y0, Y0
	VMAXPS Y5, Y0, Y0
	VMINPS Y6, Y0, Y0
	VCVTPS2DQ Y0, Y0
	VPADDD Y7, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPACKSSDW X1, X0, X0
	VPACKSSWB X0, X0, X0
	VMOVQ X0, (DI)
	ADDQ $32, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  qi8_loop8
	VZEROUPPER
	RET

// func gemmI8Asm(acc *int32, a, w *int8, m, k, n int)
//
// m, k, n ≥ 1. For each activation row, weight rows are taken in panels of
// four with one int32x8 accumulator each (Y0-Y3); the activation is widened
// once per k-step and shared by the four. k is consumed 16, then 8, then 4
// codes at a time through VPMOVSXBW/VPMADDWD (the narrower steps load into
// xmm, which clears the upper lane, and add into the same ymm sums), and a
// last k mod 4 codes one at a time. A final panel of fewer than four rows
// points its missing rows at the panel's first row, computes four sums and
// stores only the ones that exist.
TEXT ·gemmI8Asm(SB), NOSPLIT, $0-48
	MOVQ acc+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ m+24(FP), R9
	MOVQ k+32(FP), CX
gi8_row:
	MOVQ w+16(FP), R8
	MOVQ n+40(FP), DX
gi8_panel:
	MOVQ R8, R11
	MOVQ R8, R12
	MOVQ R8, R13
	CMPQ DX, $2
	JL   gi8_zero
	LEAQ (R8)(CX*1), R11
	CMPQ DX, $3
	JL   gi8_zero
	LEAQ (R11)(CX*1), R12
	CMPQ DX, $4
	JL   gi8_zero
	LEAQ (R12)(CX*1), R13
gi8_zero:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ BX, BX
gi8_k16:
	LEAQ 16(BX), AX
	CMPQ AX, CX
	JG   gi8_k8
	VPMOVSXBW (SI)(BX*1), Y4
	VPMOVSXBW (R8)(BX*1), Y5
	VPMADDWD Y4, Y5, Y5
	VPADDD Y5, Y0, Y0
	VPMOVSXBW (R11)(BX*1), Y5
	VPMADDWD Y4, Y5, Y5
	VPADDD Y5, Y1, Y1
	VPMOVSXBW (R12)(BX*1), Y5
	VPMADDWD Y4, Y5, Y5
	VPADDD Y5, Y2, Y2
	VPMOVSXBW (R13)(BX*1), Y5
	VPMADDWD Y4, Y5, Y5
	VPADDD Y5, Y3, Y3
	MOVQ AX, BX
	JMP  gi8_k16
gi8_k8:
	LEAQ 8(BX), AX
	CMPQ AX, CX
	JG   gi8_k4
	VPMOVSXBW (SI)(BX*1), X4
	VPMOVSXBW (R8)(BX*1), X5
	VPMADDWD X4, X5, X5
	VPADDD Y5, Y0, Y0
	VPMOVSXBW (R11)(BX*1), X5
	VPMADDWD X4, X5, X5
	VPADDD Y5, Y1, Y1
	VPMOVSXBW (R12)(BX*1), X5
	VPMADDWD X4, X5, X5
	VPADDD Y5, Y2, Y2
	VPMOVSXBW (R13)(BX*1), X5
	VPMADDWD X4, X5, X5
	VPADDD Y5, Y3, Y3
	MOVQ AX, BX
gi8_k4:
	LEAQ 4(BX), AX
	CMPQ AX, CX
	JG   gi8_reduce
	VMOVD (SI)(BX*1), X4    // 4 codes; the 4 zero bytes above them widen to 0
	VPMOVSXBW X4, X4
	VMOVD (R8)(BX*1), X5
	VPMOVSXBW X5, X5
	VPMADDWD X4, X5, X5
	VPADDD Y5, Y0, Y0
	VMOVD (R11)(BX*1), X5
	VPMOVSXBW X5, X5
	VPMADDWD X4, X5, X5
	VPADDD Y5, Y1, Y1
	VMOVD (R12)(BX*1), X5
	VPMOVSXBW X5, X5
	VPMADDWD X4, X5, X5
	VPADDD Y5, Y2, Y2
	VMOVD (R13)(BX*1), X5
	VPMOVSXBW X5, X5
	VPMADDWD X4, X5, X5
	VPADDD Y5, Y3, Y3
	MOVQ AX, BX
gi8_reduce:
	// Three pairwise adds leave lane sums of Y0..Y3 in dwords 0..3 of each
	// 128-bit half; adding the halves gives the four dot products.
	VPHADDD Y1, Y0, Y0
	VPHADDD Y3, Y2, Y2
	VPHADDD Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD X1, X0, X0
gi8_k1:
	CMPQ BX, CX
	JGE  gi8_store
	MOVBLSX (R8)(BX*1), AX
	VMOVD AX, X5
	MOVBLSX (R11)(BX*1), AX
	VPINSRD $1, AX, X5, X5
	MOVBLSX (R12)(BX*1), AX
	VPINSRD $2, AX, X5, X5
	MOVBLSX (R13)(BX*1), AX
	VPINSRD $3, AX, X5, X5
	MOVBLSX (SI)(BX*1), AX
	VMOVD AX, X4
	VPBROADCASTD X4, X4
	VPMULLD X4, X5, X5
	VPADDD X5, X0, X0
	INCQ BX
	JMP  gi8_k1
gi8_store:
	CMPQ DX, $4
	JL   gi8_partial
	VMOVDQU X0, (DI)
	ADDQ $16, DI
	LEAQ (R13)(CX*1), R8
	SUBQ $4, DX
	JNZ  gi8_panel
	JMP  gi8_next
gi8_partial:
	VMOVD X0, (DI)
	CMPQ DX, $2
	JL   gi8_partial_done
	VPEXTRD $1, X0, 4(DI)
	CMPQ DX, $3
	JL   gi8_partial_done
	VPEXTRD $2, X0, 8(DI)
gi8_partial_done:
	LEAQ (DI)(DX*4), DI
gi8_next:
	ADDQ CX, SI
	DECQ R9
	JNZ  gi8_row
	VZEROUPPER
	RET

// func dequantI8Asm(out *float32, acc, rowSums *int32, scales, bias *float32, m, n int, sa float32, za int32, perChannel int)
//
// m, n ≥ 1; bias may be nil. Per output: acc − za·rowSum in int32, convert,
// multiply by the product sa·scale, add the bias — the reference's three
// float operations in its order. Eight columns at a time, then one.
TEXT ·dequantI8Asm(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ acc+8(FP), SI
	MOVQ rowSums+16(FP), R8
	MOVQ scales+24(FP), R9
	MOVQ bias+32(FP), R10
	MOVQ m+40(FP), R11
	MOVQ n+48(FP), CX
	VBROADCASTSS sa+56(FP), Y6
	MOVL za+60(FP), R13
	VMOVD R13, X7
	VPBROADCASTD X7, Y7
	MOVQ perChannel+64(FP), R12
	// Per-tensor: one sa·scale for every column.
	VMULSS (R9), X6, X8
	VBROADCASTSS X8, Y8
dq_row:
	XORQ BX, BX
dq_col8:
	LEAQ 8(BX), AX
	CMPQ AX, CX
	JG   dq_col1
	VPMULLD (R8)(BX*4), Y7, Y1
	VMOVDQU (SI)(BX*4), Y0
	VPSUBD Y1, Y0, Y0
	VCVTDQ2PS Y0, Y0
	VMOVAPS Y8, Y1
	TESTQ R12, R12
	JZ   dq_mul8
	VMULPS (R9)(BX*4), Y6, Y1
dq_mul8:
	VMULPS Y0, Y1, Y0
	TESTQ R10, R10
	JZ   dq_store8
	VADDPS (R10)(BX*4), Y0, Y0
dq_store8:
	VMOVUPS Y0, (DI)(BX*4)
	MOVQ AX, BX
	JMP  dq_col8
dq_col1:
	CMPQ BX, CX
	JGE  dq_next
	MOVL (R8)(BX*4), AX
	IMULL R13, AX
	MOVL (SI)(BX*4), DX
	SUBL AX, DX
	VCVTSI2SSL DX, X0, X0
	VMOVAPS X8, X1
	TESTQ R12, R12
	JZ   dq_mul1
	VMULSS (R9)(BX*4), X6, X1
dq_mul1:
	VMULSS X0, X1, X0
	TESTQ R10, R10
	JZ   dq_store1
	VADDSS (R10)(BX*4), X0, X0
dq_store1:
	VMOVSS X0, (DI)(BX*4)
	INCQ BX
	JMP  dq_col1
dq_next:
	LEAQ (DI)(CX*4), DI
	LEAQ (SI)(CX*4), SI
	DECQ R11
	JNZ  dq_row
	VZEROUPPER
	RET
