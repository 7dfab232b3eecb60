//go:build !noasm

// AVX2 bodies of the int8 linear layer's micro-kernels (i8.go), and the
// GEMM's AVX512_VNNI body. No FMA and no reciprocal anywhere: each float
// step is the same single IEEE operation the Go reference performs, so the
// two agree bit for bit.

#include "textflag.h"
#include "tailmask_amd64.h"

// QUANT8 quantizes the eight floats of Y0 by QuantizeI8's rule — divide by
// Y4, clamp to [Y5, Y6] (NaN to Y5: VMAXPS returns its second source, Y5,
// on a NaN), convert with the default round-to-nearest-even, add the int32
// zero point Y7 — adds the eight int32 codes into Y8, and leaves them
// narrowed 32 → 16 → 8 bits in the low eight bytes of X0 (the values
// already fit, so the saturating packs only narrow). Clobbers X1.
#define QUANT8 \
	VDIVPS       Y4, Y0, Y0; \
	VMAXPS       Y5, Y0, Y0; \
	VMINPS       Y6, Y0, Y0; \
	VCVTPS2DQ    Y0, Y0; \
	VPADDD       Y7, Y0, Y0; \
	VPADDD       Y0, Y8, Y8; \
	VEXTRACTI128 $1, Y0, X1; \
	VPACKSSDW    X1, X0, X0; \
	VPACKSSWB    X0, X0, X0

// MINMAX8 folds the eight floats of Y0 into the running minimum Y2 and
// maximum Y3. VMINPS/VMAXPS return their second source when either is a
// NaN, so with the running value in that slot a NaN in the data is skipped,
// as the reference's comparisons skip it.
#define MINMAX8 \
	VMINPS Y2, Y0, Y2; \
	VMAXPS Y3, Y0, Y3

// REDUCEMINMAX leaves the minimum of Y2's lanes in X2 and the maximum of
// Y3's in X3. Every lane holds +0 or a value of the sign it tracks, never a
// NaN, so the order of the steps cannot change the result. Clobbers X0, X1.
#define REDUCEMINMAX \
	VEXTRACTF128 $1, Y2, X0; \
	VEXTRACTF128 $1, Y3, X1; \
	VMINPS       X0, X2, X2; \
	VMAXPS       X1, X3, X3; \
	VPSHUFD      $0x4E, X2, X0; \
	VPSHUFD      $0x4E, X3, X1; \
	VMINPS       X0, X2, X2; \
	VMAXPS       X1, X3, X3; \
	VPSHUFD      $0xB1, X2, X0; \
	VPSHUFD      $0xB1, X3, X1; \
	VMINPS       X0, X2, X2; \
	VMAXPS       X1, X3, X3

// func rangeF32Asm(x *float32, rows, cols, ld int) (mn, mx float32)
//
// rows, cols ≥ 1. Each row sixteen at a time into two pairs of chains (Y2,
// Y3 and Y9, Y10), then eight, then its last cols mod 8 through VMASKMOVPS,
// whose masked-off lanes read +0 — a value the range holds already.
TEXT ·rangeF32Asm(SB), NOSPLIT, $0-40
	MOVQ   x+0(FP), SI
	MOVQ   rows+8(FP), R8
	MOVQ   cols+16(FP), CX
	MOVQ   ld+24(FP), DX
	SHLQ   $2, DX
	TAILMASK
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10

rng_row:
	XORQ BX, BX

rng_loop16:
	LEAQ    16(BX), AX
	CMPQ    AX, R10
	JG      rng_loop8
	VMOVUPS (SI)(BX*4), Y0
	VMOVUPS 32(SI)(BX*4), Y1
	MINMAX8
	VMINPS  Y9, Y1, Y9
	VMAXPS  Y10, Y1, Y10
	MOVQ    AX, BX
	JMP     rng_loop16

rng_loop8:
	CMPQ    BX, R10
	JGE     rng_tail
	VMOVUPS (SI)(BX*4), Y0
	MINMAX8
	ADDQ    $8, BX
	JMP     rng_loop8

rng_tail:
	TESTQ      R9, R9
	JZ         rng_next
	VMASKMOVPS (SI)(BX*4), Y15, Y0
	MINMAX8

rng_next:
	ADDQ   DX, SI
	DECQ   R8
	JNZ    rng_row
	VMINPS Y9, Y2, Y2
	VMAXPS Y10, Y3, Y3
	REDUCEMINMAX
	VMOVSS X2, mn+32(FP)
	VMOVSS X3, mx+36(FP)
	VZEROUPPER
	RET

// func quantizeI8Asm(dst *int8, src *float32, rows, cols, ld int, scale, fl, fh float32, zero int32)
//
// rows, cols ≥ 1. Each row eight at a time through QUANT8; its last cols
// mod 8 are read through VMASKMOVPS and their codes stored a byte at a time.
TEXT ·quantizeI8Asm(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         rows+16(FP), R8
	MOVQ         cols+24(FP), CX
	MOVQ         ld+32(FP), DX
	SHLQ         $2, DX
	VBROADCASTSS scale+40(FP), Y4
	VBROADCASTSS fl+44(FP), Y5
	VBROADCASTSS fh+48(FP), Y6
	MOVL         zero+52(FP), AX
	VMOVD        AX, X7
	VPBROADCASTD X7, Y7
	TAILMASK

qi8_row:
	XORQ BX, BX

qi8_loop8:
	CMPQ    BX, R10
	JGE     qi8_tail
	VMOVUPS (SI)(BX*4), Y0
	QUANT8
	VMOVQ   X0, (DI)(BX*1)
	ADDQ    $8, BX
	JMP     qi8_loop8

qi8_tail:
	TESTQ      R9, R9
	JZ         qi8_next
	VMASKMOVPS (SI)(BX*4), Y15, Y0
	QUANT8
	VMOVQ      X0, AX
	MOVQ       R9, R11

qi8_byte:
	MOVB AX, (DI)(BX*1)
	SHRQ $8, AX
	INCQ BX
	DECQ R11
	JNZ  qi8_byte

qi8_next:
	ADDQ CX, DI
	ADDQ DX, SI
	DECQ R8
	JNZ  qi8_row
	VZEROUPPER
	RET

// func quantizeRowsI8Asm(dst *int8, scales *float32, sums *int32, src *float32, rows, cols, ld int, fl, fh float32)
//
// rows, cols ≥ 1. Per row, two passes: the range (MINMAX8, the tail
// masked) reduced to absMax = max(0 − mn, mx), replaced by 1 when it is 0,
// and scale = absMax/fh; then the codes through QUANT8 with zero point 0,
// as quantizeI8Asm stores them, their int32 sum gathered in Y8. 0 − mn is
// −mn except for mn = +0, where absMax is 0 either way.
TEXT ·quantizeRowsI8Asm(SB), NOSPLIT, $0-64
	MOVQ         dst+0(FP), DI
	MOVQ         scales+8(FP), R12
	MOVQ         sums+16(FP), R13
	MOVQ         src+24(FP), SI
	MOVQ         rows+32(FP), R8
	MOVQ         cols+40(FP), CX
	MOVQ         ld+48(FP), DX
	SHLQ         $2, DX
	VBROADCASTSS fl+56(FP), Y5
	VBROADCASTSS fh+60(FP), Y6
	VPXOR        Y7, Y7, Y7
	TAILMASK

qr_row:
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   BX, BX

qr_range8:
	CMPQ    BX, R10
	JGE     qr_rangetail
	VMOVUPS (SI)(BX*4), Y0
	MINMAX8
	ADDQ    $8, BX
	JMP     qr_range8

qr_rangetail:
	TESTQ      R9, R9
	JZ         qr_scale
	VMASKMOVPS (SI)(BX*4), Y15, Y0
	MINMAX8

qr_scale:
	REDUCEMINMAX
	VXORPS   X0, X0, X0
	VSUBSS   X2, X0, X2
	VMAXSS   X3, X2, X2
	VUCOMISS X0, X2
	JNE      qr_nonzero
	MOVL     $0x3f800000, AX
	VMOVD    AX, X2

qr_nonzero:
	VDIVSS       X6, X2, X4
	VMOVSS       X4, (R12)
	VBROADCASTSS X4, Y4
	VPXOR        Y8, Y8, Y8
	XORQ         BX, BX

qr_quant8:
	CMPQ    BX, R10
	JGE     qr_quanttail
	VMOVUPS (SI)(BX*4), Y0
	QUANT8
	VMOVQ   X0, (DI)(BX*1)
	ADDQ    $8, BX
	JMP     qr_quant8

qr_quanttail:
	// Masked-off lanes read +0, quantize to 0 and add nothing to the sum.
	TESTQ      R9, R9
	JZ         qr_sum
	VMASKMOVPS (SI)(BX*4), Y15, Y0
	QUANT8
	VMOVQ      X0, AX
	MOVQ       R9, R11

qr_byte:
	MOVB AX, (DI)(BX*1)
	SHRQ $8, AX
	INCQ BX
	DECQ R11
	JNZ  qr_byte

qr_sum:
	VEXTRACTI128 $1, Y8, X1
	VPADDD       X1, X8, X8
	VPSHUFD      $0x4E, X8, X1
	VPADDD       X1, X8, X8
	VPSHUFD      $0xB1, X8, X1
	VPADDD       X1, X8, X8
	VMOVD        X8, (R13)
	ADDQ         $4, R12
	ADDQ         $4, R13
	ADDQ         CX, DI
	ADDQ         DX, SI
	DECQ         R8
	JNZ          qr_row
	VZEROUPPER
	RET

// func gemmI8Asm(acc *int32, a, w *int8, m, k, n int)
//
// m, k, n ≥ 1. The activation rows are taken two at a time (SI, R10) and
// the weight rows in panels of four (R8, R11, R12, R13), one int32x8
// accumulator per pair (Y0-Y3 for the first activation row, Y4-Y7 for the
// second): each weight row is widened once per k-step and shared by both
// activation rows. k is consumed 16, then 8, then 4 codes at a time through
// VPMOVSXBW/VPMADDWD (the narrower steps load into xmm, which clears the
// upper lane, and add into the same ymm sums), and a last k mod 4 codes one
// at a time. A last tile of one activation row points its second row at the
// first; a last panel of fewer than four weight rows points its missing
// rows at the panel's first. Either way only the sums that exist are
// stored, a partial panel's under the dword mask X14.
TEXT ·gemmI8Asm(SB), NOSPLIT, $0-48
	MOVQ acc+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ m+24(FP), R9
	MOVQ k+32(FP), CX

gi8_rows:
	MOVQ SI, R10
	CMPQ R9, $2
	JL   gi8_one_row
	LEAQ (SI)(CX*1), R10

gi8_one_row:
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
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	XORQ  BX, BX

gi8_k16:
	LEAQ      16(BX), AX
	CMPQ      AX, CX
	JG        gi8_k8
	VPMOVSXBW (SI)(BX*1), Y8
	VPMOVSXBW (R10)(BX*1), Y9
	VPMOVSXBW (R8)(BX*1), Y10
	VPMADDWD  Y8, Y10, Y11
	VPADDD    Y11, Y0, Y0
	VPMADDWD  Y9, Y10, Y11
	VPADDD    Y11, Y4, Y4
	VPMOVSXBW (R11)(BX*1), Y10
	VPMADDWD  Y8, Y10, Y11
	VPADDD    Y11, Y1, Y1
	VPMADDWD  Y9, Y10, Y11
	VPADDD    Y11, Y5, Y5
	VPMOVSXBW (R12)(BX*1), Y10
	VPMADDWD  Y8, Y10, Y11
	VPADDD    Y11, Y2, Y2
	VPMADDWD  Y9, Y10, Y11
	VPADDD    Y11, Y6, Y6
	VPMOVSXBW (R13)(BX*1), Y10
	VPMADDWD  Y8, Y10, Y11
	VPADDD    Y11, Y3, Y3
	VPMADDWD  Y9, Y10, Y11
	VPADDD    Y11, Y7, Y7
	MOVQ      AX, BX
	JMP       gi8_k16

gi8_k8:
	LEAQ      8(BX), AX
	CMPQ      AX, CX
	JG        gi8_k4
	VPMOVSXBW (SI)(BX*1), X8
	VPMOVSXBW (R10)(BX*1), X9
	VPMOVSXBW (R8)(BX*1), X10
	VPMADDWD  X8, X10, X11
	VPADDD    Y11, Y0, Y0
	VPMADDWD  X9, X10, X11
	VPADDD    Y11, Y4, Y4
	VPMOVSXBW (R11)(BX*1), X10
	VPMADDWD  X8, X10, X11
	VPADDD    Y11, Y1, Y1
	VPMADDWD  X9, X10, X11
	VPADDD    Y11, Y5, Y5
	VPMOVSXBW (R12)(BX*1), X10
	VPMADDWD  X8, X10, X11
	VPADDD    Y11, Y2, Y2
	VPMADDWD  X9, X10, X11
	VPADDD    Y11, Y6, Y6
	VPMOVSXBW (R13)(BX*1), X10
	VPMADDWD  X8, X10, X11
	VPADDD    Y11, Y3, Y3
	VPMADDWD  X9, X10, X11
	VPADDD    Y11, Y7, Y7
	MOVQ      AX, BX

gi8_k4:
	// Four codes per row; the four zero bytes above them widen to 0.
	LEAQ      4(BX), AX
	CMPQ      AX, CX
	JG        gi8_reduce
	VMOVD     (SI)(BX*1), X8
	VPMOVSXBW X8, X8
	VMOVD     (R10)(BX*1), X9
	VPMOVSXBW X9, X9
	VMOVD     (R8)(BX*1), X10
	VPMOVSXBW X10, X10
	VPMADDWD  X8, X10, X11
	VPADDD    Y11, Y0, Y0
	VPMADDWD  X9, X10, X11
	VPADDD    Y11, Y4, Y4
	VMOVD     (R11)(BX*1), X10
	VPMOVSXBW X10, X10
	VPMADDWD  X8, X10, X11
	VPADDD    Y11, Y1, Y1
	VPMADDWD  X9, X10, X11
	VPADDD    Y11, Y5, Y5
	VMOVD     (R12)(BX*1), X10
	VPMOVSXBW X10, X10
	VPMADDWD  X8, X10, X11
	VPADDD    Y11, Y2, Y2
	VPMADDWD  X9, X10, X11
	VPADDD    Y11, Y6, Y6
	VMOVD     (R13)(BX*1), X10
	VPMOVSXBW X10, X10
	VPMADDWD  X8, X10, X11
	VPADDD    Y11, Y3, Y3
	VPMADDWD  X9, X10, X11
	VPADDD    Y11, Y7, Y7
	MOVQ      AX, BX

gi8_reduce:
	// Three pairwise adds leave lane sums of four accumulators in dwords
	// 0..3 of each 128-bit half; adding the halves gives the four dot
	// products of an activation row: X0 for the first, X4 for the second.
	VPHADDD      Y1, Y0, Y0
	VPHADDD      Y3, Y2, Y2
	VPHADDD      Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPHADDD      Y5, Y4, Y4
	VPHADDD      Y7, Y6, Y6
	VPHADDD      Y6, Y4, Y4
	VEXTRACTI128 $1, Y4, X5
	VPADDD       X5, X4, X4

gi8_k1:
	CMPQ         BX, CX
	JGE          gi8_store
	MOVBLSX      (R8)(BX*1), AX
	VMOVD        AX, X5
	MOVBLSX      (R11)(BX*1), AX
	VPINSRD      $1, AX, X5, X5
	MOVBLSX      (R12)(BX*1), AX
	VPINSRD      $2, AX, X5, X5
	MOVBLSX      (R13)(BX*1), AX
	VPINSRD      $3, AX, X5, X5
	MOVBLSX      (SI)(BX*1), AX
	VMOVD        AX, X6
	VPBROADCASTD X6, X6
	VPMULLD      X6, X5, X6
	VPADDD       X6, X0, X0
	MOVBLSX      (R10)(BX*1), AX
	VMOVD        AX, X6
	VPBROADCASTD X6, X6
	VPMULLD      X6, X5, X6
	VPADDD       X6, X4, X4
	INCQ         BX
	JMP          gi8_k1

gi8_store:
	// AX points at the second activation row's sums for this panel.
	MOVQ n+40(FP), AX
	LEAQ (DI)(AX*4), AX
	CMPQ DX, $4
	JL   gi8_partial
	VMOVDQU X0, (DI)
	CMPQ R9, $2
	JL   gi8_stored4
	VMOVDQU X4, (AX)

gi8_stored4:
	ADDQ $16, DI
	LEAQ (R13)(CX*1), R8
	SUBQ $4, DX
	JNZ  gi8_panel
	JMP  gi8_next

gi8_partial:
	SHLQ       $2, DX
	LEAQ       ·tailMask+32(SB), BX
	SUBQ       DX, BX
	VMOVDQU    (BX), X14
	VPMASKMOVD X0, X14, (DI)
	CMPQ       R9, $2
	JL         gi8_stored
	VPMASKMOVD X4, X14, (AX)

gi8_stored:
	ADDQ DX, DI

gi8_next:
	// DI is at the second activation row's sums: step over them.
	MOVQ n+40(FP), AX
	LEAQ (DI)(AX*4), DI
	LEAQ (SI)(CX*2), SI
	SUBQ $2, R9
	JG   gi8_rows
	VZEROUPPER
	RET

// func gemmI8VNNIAsm(acc *int32, a, w *int8, wsums *int32, m, k, n int)
//
// m, k, n ≥ 1; wsums[o] = Σ_t w[o*k+t]. gemmI8Asm's tiling — two
// activation rows (SI, R10) against panels of four weight rows (R8, R11,
// R12, R13), the sums of the first activation row in Y0-Y3 and of the
// second in Y4-Y7, missing rows of a last tile or panel aliased and their
// sums not stored — with the products on the EVEX VPDPBUSD, which adds
// four u8×s8 products into each int32 lane. The activation codes are its
// unsigned operand after an XOR with 0x80 (Y15), which maps a to a+128, so
// each lane sums (a+128)·w; every code goes through that sum — k 32, 16, 8
// and 4 codes a step, the narrower steps loaded into xmm (upper lanes 0, so
// they add 0·w), and the last k mod 4 one at a time as a+128 — and the
// store subtracts 128·wsums[o] from each of the panel's sums, leaving
// Σ_t a·w. The EVEX instructions use ymm registers only, never an xmm
// destination (which would clear a live upper lane), and no opmask.
TEXT ·gemmI8VNNIAsm(SB), NOSPLIT, $0-56
	MOVQ         acc+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         m+32(FP), R9
	MOVQ         k+40(FP), CX
	MOVL         $0x80808080, AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15

gv_rows:
	MOVQ SI, R10
	CMPQ R9, $2
	JL   gv_one_row
	LEAQ (SI)(CX*1), R10

gv_one_row:
	MOVQ w+16(FP), R8
	MOVQ n+48(FP), DX

gv_panel:
	MOVQ R8, R11
	MOVQ R8, R12
	MOVQ R8, R13
	CMPQ DX, $2
	JL   gv_zero
	LEAQ (R8)(CX*1), R11
	CMPQ DX, $3
	JL   gv_zero
	LEAQ (R11)(CX*1), R12
	CMPQ DX, $4
	JL   gv_zero
	LEAQ (R12)(CX*1), R13

gv_zero:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	XORQ  BX, BX

gv_k32:
	LEAQ     32(BX), AX
	CMPQ     AX, CX
	JG       gv_k16
	VPXOR    (SI)(BX*1), Y15, Y8
	VPXOR    (R10)(BX*1), Y15, Y9
	VMOVDQU  (R8)(BX*1), Y10
	VMOVDQU  (R11)(BX*1), Y11
	VMOVDQU  (R12)(BX*1), Y12
	VMOVDQU  (R13)(BX*1), Y13
	VPDPBUSD Y10, Y8, Y0
	VPDPBUSD Y10, Y9, Y4
	VPDPBUSD Y11, Y8, Y1
	VPDPBUSD Y11, Y9, Y5
	VPDPBUSD Y12, Y8, Y2
	VPDPBUSD Y12, Y9, Y6
	VPDPBUSD Y13, Y8, Y3
	VPDPBUSD Y13, Y9, Y7
	MOVQ     AX, BX
	JMP      gv_k32

gv_k16:
	LEAQ     16(BX), AX
	CMPQ     AX, CX
	JG       gv_k8
	VPXOR    (SI)(BX*1), X15, X8
	VPXOR    (R10)(BX*1), X15, X9
	VMOVDQU  (R8)(BX*1), X10
	VMOVDQU  (R11)(BX*1), X11
	VMOVDQU  (R12)(BX*1), X12
	VMOVDQU  (R13)(BX*1), X13
	VPDPBUSD Y10, Y8, Y0
	VPDPBUSD Y10, Y9, Y4
	VPDPBUSD Y11, Y8, Y1
	VPDPBUSD Y11, Y9, Y5
	VPDPBUSD Y12, Y8, Y2
	VPDPBUSD Y12, Y9, Y6
	VPDPBUSD Y13, Y8, Y3
	VPDPBUSD Y13, Y9, Y7
	MOVQ     AX, BX

gv_k8:
	LEAQ     8(BX), AX
	CMPQ     AX, CX
	JG       gv_k4
	VMOVQ    (SI)(BX*1), X8
	VPXOR    X15, X8, X8
	VMOVQ    (R10)(BX*1), X9
	VPXOR    X15, X9, X9
	VMOVQ    (R8)(BX*1), X10
	VMOVQ    (R11)(BX*1), X11
	VMOVQ    (R12)(BX*1), X12
	VMOVQ    (R13)(BX*1), X13
	VPDPBUSD Y10, Y8, Y0
	VPDPBUSD Y10, Y9, Y4
	VPDPBUSD Y11, Y8, Y1
	VPDPBUSD Y11, Y9, Y5
	VPDPBUSD Y12, Y8, Y2
	VPDPBUSD Y12, Y9, Y6
	VPDPBUSD Y13, Y8, Y3
	VPDPBUSD Y13, Y9, Y7
	MOVQ     AX, BX

gv_k4:
	LEAQ     4(BX), AX
	CMPQ     AX, CX
	JG       gv_reduce
	VMOVD    (SI)(BX*1), X8
	VPXOR    X15, X8, X8
	VMOVD    (R10)(BX*1), X9
	VPXOR    X15, X9, X9
	VMOVD    (R8)(BX*1), X10
	VMOVD    (R11)(BX*1), X11
	VMOVD    (R12)(BX*1), X12
	VMOVD    (R13)(BX*1), X13
	VPDPBUSD Y10, Y8, Y0
	VPDPBUSD Y10, Y9, Y4
	VPDPBUSD Y11, Y8, Y1
	VPDPBUSD Y11, Y9, Y5
	VPDPBUSD Y12, Y8, Y2
	VPDPBUSD Y12, Y9, Y6
	VPDPBUSD Y13, Y8, Y3
	VPDPBUSD Y13, Y9, Y7
	MOVQ     AX, BX

gv_reduce:
	// As gemmI8Asm: the four biased sums of the first activation row in X0,
	// of the second in X4.
	VPHADDD      Y1, Y0, Y0
	VPHADDD      Y3, Y2, Y2
	VPHADDD      Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPHADDD      Y5, Y4, Y4
	VPHADDD      Y7, Y6, Y6
	VPHADDD      Y6, Y4, Y4
	VEXTRACTI128 $1, Y4, X5
	VPADDD       X5, X4, X4

gv_k1:
	CMPQ         BX, CX
	JGE          gv_store
	MOVBLSX      (R8)(BX*1), AX
	VMOVD        AX, X5
	MOVBLSX      (R11)(BX*1), AX
	VPINSRD      $1, AX, X5, X5
	MOVBLSX      (R12)(BX*1), AX
	VPINSRD      $2, AX, X5, X5
	MOVBLSX      (R13)(BX*1), AX
	VPINSRD      $3, AX, X5, X5
	MOVBLZX      (SI)(BX*1), AX
	XORL         $0x80, AX
	VMOVD        AX, X6
	VPBROADCASTD X6, X6
	VPMULLD      X6, X5, X6
	VPADDD       X6, X0, X0
	MOVBLZX      (R10)(BX*1), AX
	XORL         $0x80, AX
	VMOVD        AX, X6
	VPBROADCASTD X6, X6
	VPMULLD      X6, X5, X6
	VPADDD       X6, X4, X4
	INCQ         BX
	JMP          gv_k1

gv_store:
	// BX points at the panel's row sums, AX at the second activation row's
	// outputs for it.
	MOVQ n+48(FP), AX
	SUBQ DX, AX
	MOVQ wsums+24(FP), BX
	LEAQ (BX)(AX*4), BX
	MOVQ n+48(FP), AX
	LEAQ (DI)(AX*4), AX
	CMPQ DX, $4
	JL   gv_partial
	VMOVDQU (BX), X13
	VPSLLD  $7, X13, X13
	VPSUBD  X13, X0, X0
	VPSUBD  X13, X4, X4
	VMOVDQU X0, (DI)
	CMPQ    R9, $2
	JL      gv_stored4
	VMOVDQU X4, (AX)

gv_stored4:
	ADDQ $16, DI
	LEAQ (R13)(CX*1), R8
	SUBQ $4, DX
	JNZ  gv_panel
	JMP  gv_next

gv_partial:
	// The last panel, fewer than four rows: its row sums read and its
	// outputs written under the dword mask X14 (R11 is free from here).
	SHLQ       $2, DX
	LEAQ       ·tailMask+32(SB), R11
	SUBQ       DX, R11
	VMOVDQU    (R11), X14
	VPMASKMOVD (BX), X14, X13
	VPSLLD     $7, X13, X13
	VPSUBD     X13, X0, X0
	VPSUBD     X13, X4, X4
	VPMASKMOVD X0, X14, (DI)
	CMPQ       R9, $2
	JL         gv_stored
	VPMASKMOVD X4, X14, (AX)

gv_stored:
	ADDQ DX, DI

gv_next:
	// DI is at the second activation row's sums: step over them.
	MOVQ n+48(FP), AX
	LEAQ (DI)(AX*4), DI
	LEAQ (SI)(CX*2), SI
	SUBQ $2, R9
	JG   gv_rows
	VZEROUPPER
	RET

// func dequantI8Asm(out *float32, acc, rowSums *int32, scales, bias *float32, m, n, ldo int, sa float32, za int32, perChannel int)
//
// m, n ≥ 1; bias may be nil; out's rows are ldo floats apart. Per output: acc − za·rowSum in int32, convert,
// multiply by the product sa·scale, add the bias — the reference's three
// float operations in its order. Eight columns at a time, then one.
TEXT ·dequantI8Asm(SB), NOSPLIT, $0-80
	MOVQ out+0(FP), DI
	MOVQ acc+8(FP), SI
	MOVQ rowSums+16(FP), R8
	MOVQ scales+24(FP), R9
	MOVQ bias+32(FP), R10
	MOVQ m+40(FP), R11
	MOVQ n+48(FP), CX
	VBROADCASTSS sa+64(FP), Y6
	MOVL za+68(FP), R13
	VMOVD R13, X7
	VPBROADCASTD X7, Y7
	MOVQ perChannel+72(FP), R12
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
	MOVQ ldo+56(FP), AX
	LEAQ (DI)(AX*4), DI
	LEAQ (SI)(CX*4), SI
	DECQ R11
	JNZ  dq_row
	VZEROUPPER
	RET
