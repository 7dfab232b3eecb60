//go:build !noasm

// AVX2 bodies of the int8 layers' quantize kernels (i8.go); GemmI8's are
// in gemmi8_amd64.s. No FMA and no reciprocal anywhere: each float step is
// the same single IEEE operation the Go reference performs, so the two
// agree bit for bit.
//
// Every body here starts with PCALIGN $64, and each inner loop's label
// follows one, to pin their 64-byte phase in the binary (gemm_amd64.s says
// why).

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
	PCALIGN $64
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

	PCALIGN $64
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

	PCALIGN $64
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
	PCALIGN $64
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

	PCALIGN $64
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
// their int32 sum gathered in Y8. 0 − mn is −mn except for mn = +0, where
// absMax is 0 either way. The codes go to GemmI8's panels: DI is the row's
// first dword in its panel, a group of 4 codes is a dword 32 bytes after
// the last, so 8 codes are two dword stores, and a tail's masked-off lanes
// quantize to 0 and fill the k padding. R11 counts the panel's rows.
TEXT ·quantizeRowsI8Asm(SB), NOSPLIT, $0-64
	PCALIGN $64
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
	MOVQ         $8, R11

qr_row:
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   BX, BX

	PCALIGN $64
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

	PCALIGN $64
qr_quant8:
	CMPQ    BX, R10
	JGE     qr_quanttail
	VMOVUPS (SI)(BX*4), Y0
	QUANT8
	VMOVD   X0, (DI)(BX*8)
	VPEXTRD $1, X0, 32(DI)(BX*8)
	ADDQ    $8, BX
	JMP     qr_quant8

qr_quanttail:
	// Masked-off lanes read +0, quantize to 0 and add nothing to the sum.
	TESTQ      R9, R9
	JZ         qr_sum
	VMASKMOVPS (SI)(BX*4), Y15, Y0
	QUANT8
	VMOVD      X0, (DI)(BX*8)
	CMPQ       R9, $4
	JLE        qr_sum
	VPEXTRD    $1, X0, 32(DI)(BX*8)

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
	ADDQ         DX, SI
	ADDQ         $4, DI
	DECQ         R11
	JNZ          qr_next
	MOVQ         $8, R11
	LEAQ         3(CX), AX
	ANDQ         $-4, AX
	LEAQ         -32(DI)(AX*8), DI // the next panel's first row

qr_next:
	DECQ R8
	JNZ  qr_row
	VZEROUPPER
	RET
