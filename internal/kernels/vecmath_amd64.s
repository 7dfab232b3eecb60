//go:build !noasm

// AVX2 bodies of the float32 vector kernels (vecmath.go): the residual
// add, the exponential, GELU, softmax and LayerNorm. No FMA and no
// reciprocal or square-root estimate: each float step is the same single
// IEEE operation the Go reference performs, in its order, so the two agree
// bit for bit. Constants are read from vecConsts (R11 holds its address);
// a row's last cols mod 8 elements go through VMASKMOVPS under the
// tailMask lanes, which neither read nor write past the row.
//
// The forward's bodies here (GELU, softmax, LayerNorm) start with PCALIGN
// $64, and each of their inner loops' labels follows one, to pin their
// 64-byte phase in the binary (gemm_amd64.s says why).

#include "textflag.h"
#include "tailmask_amd64.h"

// Offsets of the rows of vecConsts.
#define C_LOG2E 0
#define C_ROUND 32
#define C_LN2HI 64
#define C_LN2LO 96
#define C_P0 128
#define C_P1 160
#define C_P2 192
#define C_P3 224
#define C_P4 256
#define C_P5 288
#define C_ONE 320
#define C_BIAS 352
#define C_MAXLOG 384
#define C_MINLOG 416
#define C_INF 448
#define C_NEGINF 480
#define C_GELUC 512
#define C_GELUK 544

// EXP32 sets each lane of Y3 to exp32 of the same lane of Y0, with the Go
// exp32's operations in its order: n = (x·log2e + 1.5·2²³) − 1.5·2²³;
// r = (x − n·ln2Hi) − n·ln2Lo; Horner's polynomial, then p·r·r + r + 1;
// n split into half = n/2 (truncated, as Go's int32 division) and n − half,
// each made a power of two through the exponent field and multiplied in.
// Every lane computes all of it; the range checks then blend: +Inf above
// maxLog32, 0 below minLog32, x itself where x is a NaN. Clobbers Y1, Y2,
// Y4, Y5, Y6.
#define EXP32 \
	VMULPS    C_LOG2E(R11), Y0, Y1; \
	VADDPS    C_ROUND(R11), Y1, Y1; \
	VSUBPS    C_ROUND(R11), Y1, Y1; \
	VMULPS    C_LN2HI(R11), Y1, Y2; \
	VSUBPS    Y2, Y0, Y2; \
	VMULPS    C_LN2LO(R11), Y1, Y4; \
	VSUBPS    Y4, Y2, Y2; \
	VMULPS    C_P0(R11), Y2, Y3; \
	VADDPS    C_P1(R11), Y3, Y3; \
	VMULPS    Y2, Y3, Y3; \
	VADDPS    C_P2(R11), Y3, Y3; \
	VMULPS    Y2, Y3, Y3; \
	VADDPS    C_P3(R11), Y3, Y3; \
	VMULPS    Y2, Y3, Y3; \
	VADDPS    C_P4(R11), Y3, Y3; \
	VMULPS    Y2, Y3, Y3; \
	VADDPS    C_P5(R11), Y3, Y3; \
	VMULPS    Y2, Y3, Y3; \
	VMULPS    Y2, Y3, Y3; \
	VADDPS    Y2, Y3, Y3; \
	VADDPS    C_ONE(R11), Y3, Y3; \
	VCVTPS2DQ Y1, Y4; \
	VPSRLD    $31, Y4, Y5; \
	VPADDD    Y4, Y5, Y5; \
	VPSRAD    $1, Y5, Y5; \
	VPSUBD    Y5, Y4, Y4; \
	VPADDD    C_BIAS(R11), Y5, Y5; \
	VPSLLD    $23, Y5, Y5; \
	VPADDD    C_BIAS(R11), Y4, Y4; \
	VPSLLD    $23, Y4, Y4; \
	VMULPS    Y5, Y3, Y3; \
	VMULPS    Y4, Y3, Y3; \
	VCMPPS    $0x0e, C_MAXLOG(R11), Y0, Y6; \
	VBLENDVPS Y6, C_INF(R11), Y3, Y3; \
	VCMPPS    $0x01, C_MINLOG(R11), Y0, Y6; \
	VANDNPS   Y3, Y6, Y3; \
	VCMPPS    $0x03, Y0, Y0, Y6; \
	VBLENDVPS Y6, Y0, Y3, Y3

// LANESUM leaves in lane 0 of X the sum of the eight lanes of Y (whose low
// half is X), in laneSum's order. Clobbers X0.
#define LANESUM(Y, X) \
	VEXTRACTF128 $1, Y, X0; \
	VADDPS       X0, X, X; \
	VPERMILPS    $0x4e, X, X0; \
	VADDPS       X0, X, X; \
	VPERMILPS    $0xb1, X, X0; \
	VADDSS       X0, X, X

// func addF32Asm(dst, src *float32, n int)
//
// n ≥ 1: dst[i] += src[i], 32 then 8 floats a step and the last n mod 8
// through VMASKMOVPS, whose masked-off lanes neither read nor write.
TEXT ·addF32Asm(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	TAILMASK
	XORQ BX, BX

add_loop32:
	LEAQ    32(BX), AX
	CMPQ    AX, R10
	JG      add_loop8
	VMOVUPS (DI)(BX*4), Y0
	VMOVUPS 32(DI)(BX*4), Y1
	VMOVUPS 64(DI)(BX*4), Y2
	VMOVUPS 96(DI)(BX*4), Y3
	VADDPS  (SI)(BX*4), Y0, Y0
	VADDPS  32(SI)(BX*4), Y1, Y1
	VADDPS  64(SI)(BX*4), Y2, Y2
	VADDPS  96(SI)(BX*4), Y3, Y3
	VMOVUPS Y0, (DI)(BX*4)
	VMOVUPS Y1, 32(DI)(BX*4)
	VMOVUPS Y2, 64(DI)(BX*4)
	VMOVUPS Y3, 96(DI)(BX*4)
	MOVQ    AX, BX
	JMP     add_loop32

add_loop8:
	CMPQ    BX, R10
	JGE     add_tail
	VMOVUPS (DI)(BX*4), Y0
	VADDPS  (SI)(BX*4), Y0, Y0
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ    $8, BX
	JMP     add_loop8

add_tail:
	TESTQ      R9, R9
	JZ         add_done
	VMASKMOVPS (DI)(BX*4), Y15, Y0
	VMASKMOVPS (SI)(BX*4), Y15, Y1
	VADDPS     Y1, Y0, Y0
	VMASKMOVPS Y0, Y15, (DI)(BX*4)

add_done:
	VZEROUPPER
	RET

// func exp32Asm(dst, src *float32, n int)
//
// n is a positive multiple of 8: dst[i] = exp32(src[i]).
TEXT ·exp32Asm(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	LEAQ ·vecConsts(SB), R11
	SHRQ $3, CX
exp_loop:
	VMOVUPS (SI), Y0
	EXP32
	VMOVUPS Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     exp_loop
	VZEROUPPER
	RET

// func geluF32Asm(dst, src *float32, n int)
//
// n is a positive multiple of 8: dst[i] = x / (1 + exp32(geluK·(x +
// geluC·x·x·x))) for x = src[i], the reference's operations in its order.
TEXT ·geluF32Asm(SB), NOSPLIT, $0-24
	PCALIGN $64
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	LEAQ ·vecConsts(SB), R11
	SHRQ $3, CX
	PCALIGN $64
gelu_loop:
	VMOVUPS (SI), Y9
	VMULPS  C_GELUC(R11), Y9, Y1
	VMULPS  Y9, Y1, Y1
	VMULPS  Y9, Y1, Y1
	VADDPS  Y9, Y1, Y1
	VMULPS  C_GELUK(R11), Y1, Y0
	EXP32
	VADDPS  C_ONE(R11), Y3, Y3
	VDIVPS  Y3, Y9, Y3
	VMOVUPS Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     gelu_loop
	VZEROUPPER
	RET

// func softmaxF32Asm(x *float32, rows, cols int, scale float32)
//
// rows, cols ≥ 1. Per row, three passes: the maximum (masked-off tail
// lanes read as -Inf), scaled; e = exp32(v·scale − m) stored over the row
// and summed into eight lanes (masked-off lanes add +0); the reciprocal of
// the lane sum multiplied in.
TEXT ·softmaxF32Asm(SB), NOSPLIT, $0-28
	PCALIGN $64
	MOVQ         x+0(FP), DI
	MOVQ         rows+8(FP), R8
	MOVQ         cols+16(FP), CX
	VBROADCASTSS scale+24(FP), Y7
	LEAQ         ·vecConsts(SB), R11
	TAILMASK
	VMOVUPS      C_NEGINF(R11), Y11

sm_row:
	VMOVAPS Y11, Y8
	XORQ    BX, BX

	PCALIGN $64
sm_max8:
	CMPQ   BX, R10
	JGE    sm_maxtail
	VMAXPS (DI)(BX*4), Y8, Y8
	ADDQ   $8, BX
	JMP    sm_max8

sm_maxtail:
	TESTQ      R9, R9
	JZ         sm_maxred
	VMASKMOVPS (DI)(BX*4), Y15, Y0
	VBLENDVPS  Y15, Y0, Y11, Y0
	VMAXPS     Y0, Y8, Y8

sm_maxred:
	VEXTRACTF128 $1, Y8, X0
	VMAXPS       X0, X8, X8
	VPERMILPS    $0x4e, X8, X0
	VMAXPS       X0, X8, X8
	VPERMILPS    $0xb1, X8, X0
	VMAXPS       X0, X8, X8
	VMULSS       X7, X8, X8
	VBROADCASTSS X8, Y8
	VXORPS       Y9, Y9, Y9
	XORQ         BX, BX

	PCALIGN $64
sm_exp8:
	CMPQ    BX, R10
	JGE     sm_exptail
	VMULPS  (DI)(BX*4), Y7, Y0
	VSUBPS  Y8, Y0, Y0
	EXP32
	VMOVUPS Y3, (DI)(BX*4)
	VADDPS  Y3, Y9, Y9
	ADDQ    $8, BX
	JMP     sm_exp8

sm_exptail:
	TESTQ      R9, R9
	JZ         sm_sumred
	VMASKMOVPS (DI)(BX*4), Y15, Y0
	VMULPS     Y7, Y0, Y0
	VSUBPS     Y8, Y0, Y0
	EXP32
	VMASKMOVPS Y3, Y15, (DI)(BX*4)
	VANDPS     Y15, Y3, Y3
	VADDPS     Y3, Y9, Y9

sm_sumred:
	LANESUM(Y9, X9)
	VMOVSS       C_ONE(R11), X1
	VDIVSS       X9, X1, X1
	VBROADCASTSS X1, Y1
	XORQ         BX, BX

	PCALIGN $64
sm_norm8:
	CMPQ    BX, R10
	JGE     sm_normtail
	VMULPS  (DI)(BX*4), Y1, Y2
	VMOVUPS Y2, (DI)(BX*4)
	ADDQ    $8, BX
	JMP     sm_norm8

sm_normtail:
	TESTQ      R9, R9
	JZ         sm_next
	VMASKMOVPS (DI)(BX*4), Y15, Y2
	VMULPS     Y1, Y2, Y2
	VMASKMOVPS Y2, Y15, (DI)(BX*4)

sm_next:
	LEAQ (DI)(CX*4), DI
	DECQ R8
	JNZ  sm_row
	VZEROUPPER
	RET

// func layerNormF32Asm(dst, src, gamma, beta *float32, rows, d int, eps float32)
//
// rows, d ≥ 1. Per row, three passes: Σx into eight lanes, divided by d,
// is the mean; Σ(x − mean)² likewise (masked-off tail lanes zeroed before
// squaring) is the variance; inv = 1/√(variance + eps) by VSQRTSS and
// VDIVSS; then gamma·((x − mean)·inv) + beta. The statistics are complete
// before the row is written, so dst may be src.
TEXT ·layerNormF32Asm(SB), NOSPLIT, $0-52
	PCALIGN $64
	MOVQ       dst+0(FP), DI
	MOVQ       src+8(FP), SI
	MOVQ       gamma+16(FP), R12
	MOVQ       beta+24(FP), R13
	MOVQ       rows+32(FP), R8
	MOVQ       d+40(FP), CX
	VMOVSS     eps+48(FP), X14
	LEAQ       ·vecConsts(SB), R11
	VCVTSI2SSQ CX, X13, X13
	TAILMASK

ln_row:
	VXORPS Y9, Y9, Y9
	XORQ   BX, BX

	PCALIGN $64
ln_sum8:
	CMPQ   BX, R10
	JGE    ln_sumtail
	VADDPS (SI)(BX*4), Y9, Y9
	ADDQ   $8, BX
	JMP    ln_sum8

ln_sumtail:
	TESTQ      R9, R9
	JZ         ln_mean
	VMASKMOVPS (SI)(BX*4), Y15, Y1
	VADDPS     Y1, Y9, Y9

ln_mean:
	LANESUM(Y9, X9)
	VDIVSS       X13, X9, X9
	VBROADCASTSS X9, Y8
	VXORPS       Y9, Y9, Y9
	XORQ         BX, BX

	PCALIGN $64
ln_var8:
	CMPQ    BX, R10
	JGE     ln_vartail
	VMOVUPS (SI)(BX*4), Y1
	VSUBPS  Y8, Y1, Y1
	VMULPS  Y1, Y1, Y1
	VADDPS  Y1, Y9, Y9
	ADDQ    $8, BX
	JMP     ln_var8

ln_vartail:
	TESTQ      R9, R9
	JZ         ln_inv
	VMASKMOVPS (SI)(BX*4), Y15, Y1
	VSUBPS     Y8, Y1, Y1
	VANDPS     Y15, Y1, Y1
	VMULPS     Y1, Y1, Y1
	VADDPS     Y1, Y9, Y9

ln_inv:
	LANESUM(Y9, X9)
	VDIVSS       X13, X9, X9
	VADDSS       X14, X9, X9
	VSQRTSS      X9, X9, X9
	VMOVSS       C_ONE(R11), X7
	VDIVSS       X9, X7, X7
	VBROADCASTSS X7, Y7
	XORQ         BX, BX

	PCALIGN $64
ln_out8:
	CMPQ    BX, R10
	JGE     ln_outtail
	VMOVUPS (SI)(BX*4), Y1
	VSUBPS  Y8, Y1, Y1
	VMULPS  Y7, Y1, Y1
	VMULPS  (R12)(BX*4), Y1, Y1
	VADDPS  (R13)(BX*4), Y1, Y1
	VMOVUPS Y1, (DI)(BX*4)
	ADDQ    $8, BX
	JMP     ln_out8

ln_outtail:
	TESTQ      R9, R9
	JZ         ln_next
	VMASKMOVPS (SI)(BX*4), Y15, Y1
	VMASKMOVPS (R12)(BX*4), Y15, Y2
	VMASKMOVPS (R13)(BX*4), Y15, Y3
	VSUBPS     Y8, Y1, Y1
	VMULPS     Y7, Y1, Y1
	VMULPS     Y2, Y1, Y1
	VADDPS     Y3, Y1, Y1
	VMASKMOVPS Y1, Y15, (DI)(BX*4)

ln_next:
	LEAQ (SI)(CX*4), SI
	LEAQ (DI)(CX*4), DI
	DECQ R8
	JNZ  ln_row
	VZEROUPPER
	RET
