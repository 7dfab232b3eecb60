//go:build !noasm

// GemmI8's AVX2 and AVX512_VNNI bodies (i8.go): the panel product and its
// dequantizing store. No FMA and no reciprocal: each float step of the
// store is the single IEEE operation dequantI8Go performs, in its order.
// Both bodies start with PCALIGN $64, and so does the k loop of each, to pin
// their 64-byte phase in the binary (gemm_amd64.s says why).
//
// The two bodies share one loop nest and one frame. The outer
// loop takes NP panels (a block of 8·NP outputs), the inner one four
// activation rows at a time; a last tile of fewer rows points its missing
// rows, input and output, at its last row (their stores repeat that row's
// bits), and a block's missing panels point at its last panel (their lanes
// are never stored). The frame, at the hardware SP:
//
//	0, 128, 256  the block's zc·wsums, sa·scale and bias, 8·NP lanes each
//	384          the tile's k tail, one dword per row (TAILROW)
//	400          each panel's store mask, one bit per output, a qword each
//	432, 440     the tail's byte offsets kfull + min(1, r−1), + min(2, r−1)
//	448          2^(8r) − 1 for the k tail r = k mod 4: 0 when there is none
//	456, 464, 472  rows left, the tile's first activation and output row
//	480, 488, 496  the block's first output, first panel, output column
//	504          the bytes of one panel, 8·kp

// ALIAS points r1 at r0 + stride if count ≥ i, else at r0.
#define ALIAS(r0, r1, stride, count, i) \
	LEAQ    (r0)(stride*1), r1; \
	CMPQ    count, $i; \
	CMOVQLT r0, r1

// ENTRY sets up the tail, the panel size and the first block.
#define ENTRY \
	MOVQ    k+64(FP), CX; \
	ANDQ    $3, CX; \
	LEAQ    -1(CX), DX; \
	SHLQ    $3, CX; \
	MOVQ    $1, AX; \
	SHLQ    CX, AX; \
	DECQ    AX; \
	MOVQ    AX, 448(SP); \
	MOVQ    k+64(FP), CX; \
	ANDQ    $-4, CX; \
	MOVQ    $1, AX; \
	CMPQ    DX, AX; \
	CMOVQLT DX, AX; \
	ADDQ    CX, AX; \
	MOVQ    AX, 432(SP); \
	MOVQ    $2, AX; \
	CMPQ    DX, AX; \
	CMOVQLT DX, AX; \
	ADDQ    CX, AX; \
	MOVQ    AX, 440(SP); \
	MOVQ    k+64(FP), AX; \
	ADDQ    $3, AX; \
	ANDQ    $-4, AX; \
	SHLQ    $3, AX; \
	MOVQ    AX, 504(SP); \
	MOVQ    $0, 480(SP); \
	MOVQ    wp+24(FP), AX; \
	MOVQ    AX, 488(SP); \
	MOVQ    out+0(FP), AX; \
	MOVQ    AX, 496(SP)

// BLOCK starts a block at output o0 = 480(SP): the tiles from the first
// row, and per panel j (BX = 8j) its c = clamp(n − o0 − 8j, 0, 8) outputs'
// lane mask (Y15, and its sign bits at 400+BX), zc·wsums, sa·scale and
// bias read under it — a per-tensor scale broadcast — into the frame.
#define BLOCK(NP) \
	MOVQ         a+16(FP), AX; \
	MOVQ         AX, 464(SP); \
	MOVQ         496(SP), AX; \
	MOVQ         AX, 472(SP); \
	MOVQ         m+56(FP), AX; \
	MOVQ         AX, 456(SP); \
	VPBROADCASTD zc+84(FP), Y9; \
	VBROADCASTSS sa+80(FP), Y10; \
	XORQ         BX, BX; \
prep: \
	MOVQ         n+72(FP), AX; \
	SUBQ         480(SP), AX; \
	SUBQ         BX, AX; \
	MOVQ         $8, DX; \
	CMPQ         AX, DX; \
	CMOVQGT      DX, AX; \
	XORL         DX, DX; \
	CMPQ         AX, DX; \
	CMOVQLT      DX, AX; \
	SHLQ         $2, AX; \
	LEAQ         ·tailMask+32(SB), DX; \
	SUBQ         AX, DX; \
	VMOVDQU      (DX), Y15; \
	VMOVMSKPS    Y15, AX; \
	MOVQ         AX, 400(SP)(BX*1); \
	MOVQ         480(SP), DX; \
	ADDQ         BX, DX; \
	MOVQ         wsums+32(FP), AX; \
	VPMASKMOVD   (AX)(DX*4), Y15, Y0; \
	VPMULLD      Y9, Y0, Y0; \
	VMOVDQU      Y0, (SP)(BX*4); \
	MOVQ         scales+40(FP), AX; \
	VBROADCASTSS (AX), Y0; \
	CMPQ         perChannel+88(FP), $0; \
	JE           prepscale; \
	VPMASKMOVD   (AX)(DX*4), Y15, Y0; \
prepscale: \
	VMULPS       Y0, Y10, Y0; \
	VMOVUPS      Y0, 128(SP)(BX*4); \
	MOVQ         bias+48(FP), AX; \
	TESTQ        AX, AX; \
	JZ           prepnext; \
	VPMASKMOVD   (AX)(DX*4), Y15, Y0; \
	VMOVUPS      Y0, 256(SP)(BX*4); \
prepnext: \
	ADDQ         $8, BX; \
	CMPQ         BX, $(8*NP); \
	JL           prep

// TAILROW writes the k tail of the activation row at row, its r bytes
// zero-extended, as the dword at dst(SP): the bytes at CX = kfull and at
// the offsets BX and DX (432 and 440 in the frame), the repeats past r
// masked off by 448's mask. Nothing past the row is read. Clobbers AX, DI.
#define TAILROW(row, dst) \
	MOVBLZX (row)(CX*1), DI; \
	MOVBLZX (row)(BX*1), AX; \
	SHLL    $8, AX; \
	ORL     AX, DI; \
	MOVBLZX (row)(DX*1), AX; \
	SHLL    $16, AX; \
	ORL     AX, DI; \
	ANDL    448(SP), DI; \
	MOVL    DI, dst(SP)

// TILE points R8–R11 at the tile's activation rows, sets CX = kfull = k &^ 3
// and writes the rows' k tails.
#define TILE \
	MOVQ  464(SP), R8; \
	MOVQ  k+64(FP), AX; \
	MOVQ  456(SP), DI; \
	ALIAS(R8, R9, AX, DI, 2); \
	ALIAS(R9, R10, AX, DI, 3); \
	ALIAS(R10, R11, AX, DI, 4); \
	MOVQ  k+64(FP), CX; \
	ANDQ  $-4, CX; \
	CMPQ  448(SP), $0; \
	JE    notail; \
	MOVQ  432(SP), BX; \
	MOVQ  440(SP), DX; \
	TAILROW(R8, 384); \
	TAILROW(R9, 388); \
	TAILROW(R10, 392); \
	TAILROW(R11, 396); \
notail:

// OUTROWS points R8–R11 at the tile's output rows in the block's columns.
#define OUTROWS \
	MOVQ 472(SP), R8; \
	MOVQ ldo+8(FP), AX; \
	SHLQ $2, AX; \
	MOVQ 456(SP), DI; \
	ALIAS(R8, R9, AX, DI, 2); \
	ALIAS(R9, R10, AX, DI, 3); \
	ALIAS(R10, R11, AX, DI, 4)

// NEXT moves to the next tile, else to the next block, else falls through.
#define NEXT(NP, tile, block) \
	MOVQ  k+64(FP), AX; \
	SHLQ  $2, AX; \
	ADDQ  AX, 464(SP); \
	MOVQ  ldo+8(FP), AX; \
	SHLQ  $4, AX; \
	ADDQ  AX, 472(SP); \
	SUBQ  $4, 456(SP); \
	JG    tile; \
	ADDQ  $(8*NP), 480(SP); \
	MOVQ  504(SP), AX; \
	IMULQ $NP, AX; \
	ADDQ  AX, 488(SP); \
	ADDQ  $(32*NP), 496(SP); \
	MOVQ  n+72(FP), AX; \
	CMPQ  AX, 480(SP); \
	JG    block

// ROWA adds the 4-k step of one activation row, its dword at a, to the
// row's two accumulators: the codes widened and repeated as int16 pairs
// (Y10) against the panel's widened rows 0–3 (Y8) and 4–7 (Y9), each
// VPMADDWD lane an exact sum of two products.
#define ROWA(a, lo, hi) \
	VPBROADCASTD a, X10; \
	VPMOVSXBW    X10, Y10; \
	VPMADDWD     Y10, Y8, Y11; \
	VPADDD       Y11, lo, lo; \
	VPMADDWD     Y10, Y9, Y11; \
	VPADDD       Y11, hi, hi

#define GROUPA(a0, a1, a2, a3) \
	VPMOVSXBW (R12)(BX*8), Y8; \
	VPMOVSXBW 16(R12)(BX*8), Y9; \
	ROWA(a0, Y0, Y1); \
	ROWA(a1, Y2, Y3); \
	ROWA(a2, Y4, Y5); \
	ROWA(a3, Y6, Y7)

// EPIA merges a row's two accumulators into its 8 sums (lane pairs by
// VPHADDD, then the qwords in output order) and applies the epilogue's
// first three steps: − zc·wsums, convert, × sa·scale.
#define EPIA(lo, hi) \
	VPHADDD   hi, lo, lo; \
	VPERMQ    $0xD8, lo, lo; \
	VPSUBD    (SP), lo, lo; \
	VCVTDQ2PS lo, lo; \
	VMULPS    128(SP), lo, lo

// GROUPV adds the 4-k step of the tile's rows, their dwords at a0–a3, to
// row r's accumulators Y16+3r…Y18+3r: each row's codes broadcast and biased
// by XOR 0x80 (Y8) against the three panels' steps (Y0–Y2).
#define GROUPV(a0, a1, a2, a3) \
	VMOVDQU      (R12)(BX*8), Y0; \
	VMOVDQU      (R13)(BX*8), Y1; \
	VMOVDQU      (SI)(BX*8), Y2; \
	VPBROADCASTD a0, Y4; \
	VPBROADCASTD a1, Y5; \
	VPBROADCASTD a2, Y6; \
	VPBROADCASTD a3, Y7; \
	VPXOR        Y8, Y4, Y4; \
	VPXOR        Y8, Y5, Y5; \
	VPXOR        Y8, Y6, Y6; \
	VPXOR        Y8, Y7, Y7; \
	VPDPBUSD     Y0, Y4, Y16; \
	VPDPBUSD     Y1, Y4, Y17; \
	VPDPBUSD     Y2, Y4, Y18; \
	VPDPBUSD     Y0, Y5, Y19; \
	VPDPBUSD     Y1, Y5, Y20; \
	VPDPBUSD     Y2, Y5, Y21; \
	VPDPBUSD     Y0, Y6, Y22; \
	VPDPBUSD     Y1, Y6, Y23; \
	VPDPBUSD     Y2, Y6, Y24; \
	VPDPBUSD     Y0, Y7, Y25; \
	VPDPBUSD     Y1, Y7, Y26; \
	VPDPBUSD     Y2, Y7, Y27

// EPIV applies the epilogue's first three steps to one row's three
// accumulators: − zc·wsums, convert, × sa·scale.
#define EPIV(x, y, z) \
	VPSUBD    (SP), x, x; \
	VPSUBD    32(SP), y, y; \
	VPSUBD    64(SP), z, z; \
	VCVTDQ2PS x, x; \
	VCVTDQ2PS y, y; \
	VCVTDQ2PS z, z; \
	VMULPS    128(SP), x, x; \
	VMULPS    160(SP), y, y; \
	VMULPS    192(SP), z, z

#define BIASV(x, y, z) \
	VADDPS 256(SP), x, x; \
	VADDPS 288(SP), y, y; \
	VADDPS 320(SP), z, z

#define STOREV(row, x, y, z) \
	VMOVUPS x, K1, (row); \
	VMOVUPS y, K2, 32(row); \
	VMOVUPS z, K3, 64(row)

// func gemmI8Asm(out *float32, ldo int, a, wp *int8, wsums *int32, scales, bias *float32, m, k, n int, sa float32, zc int32, perChannel int)
//
// m, k, n ≥ 1, zc = za. Blocks of one panel, the tile's sums in Y0–Y7
// (row r's two accumulators Y2r, Y2r+1), stored under the panel's lane
// mask Y15.
TEXT ·gemmI8Asm(SB), $528-96
	PCALIGN $64
	ENTRY

ga_block:
	BLOCK(1)

ga_tile:
	TILE
	MOVQ  488(SP), R12
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	XORQ  BX, BX

	PCALIGN $64
ga_k:
	CMPQ BX, CX
	JGE  ga_ktail
	GROUPA((R8)(BX*1), (R9)(BX*1), (R10)(BX*1), (R11)(BX*1))
	ADDQ $4, BX
	JMP  ga_k

ga_ktail:
	CMPQ 448(SP), $0
	JE   ga_store
	GROUPA(384(SP), 388(SP), 392(SP), 396(SP))

ga_store:
	OUTROWS
	EPIA(Y0, Y1)
	EPIA(Y2, Y3)
	EPIA(Y4, Y5)
	EPIA(Y6, Y7)
	CMPQ   bias+48(FP), $0
	JE     ga_nobias
	VADDPS 256(SP), Y0, Y0
	VADDPS 256(SP), Y2, Y2
	VADDPS 256(SP), Y4, Y4
	VADDPS 256(SP), Y6, Y6

ga_nobias:
	VMASKMOVPS Y0, Y15, (R8)
	VMASKMOVPS Y2, Y15, (R9)
	VMASKMOVPS Y4, Y15, (R10)
	VMASKMOVPS Y6, Y15, (R11)
	NEXT(1, ga_tile, ga_block)
	VZEROUPPER
	RET

// func gemmI8VNNIAsm(out *float32, ldo int, a, wp *int8, wsums *int32, scales, bias *float32, m, k, n int, sa float32, zc int32, perChannel int)
//
// m, k, n ≥ 1, zc = 128 + za. Blocks of three panels (R12, R13, SI), the
// tile's twelve sums in Y16–Y27 (EVEX registers, so the products need no
// spill), stored under the panels' opmasks K1–K3. The products are the
// EVEX VPDPBUSD on ymm: four u8×s8 products into each int32 lane, the
// activation XOR 0x80 = a + 128 as the unsigned operand.
TEXT ·gemmI8VNNIAsm(SB), $528-96
	PCALIGN $64
	ENTRY
	MOVL         $0x80808080, AX
	VMOVD        AX, X8
	VPBROADCASTD X8, Y8

gv_block:
	BLOCK(3)
	KMOVW 400(SP), K1
	KMOVW 408(SP), K2
	KMOVW 416(SP), K3

gv_tile:
	TILE
	MOVQ   488(SP), R12
	MOVQ   n+72(FP), AX
	SUBQ   480(SP), AX
	ADDQ   $7, AX
	SHRQ   $3, AX
	MOVQ   504(SP), DI
	ALIAS(R12, R13, DI, AX, 2)
	ALIAS(R13, SI, DI, AX, 3)
	VPXORD Y16, Y16, Y16
	VPXORD Y17, Y17, Y17
	VPXORD Y18, Y18, Y18
	VPXORD Y19, Y19, Y19
	VPXORD Y20, Y20, Y20
	VPXORD Y21, Y21, Y21
	VPXORD Y22, Y22, Y22
	VPXORD Y23, Y23, Y23
	VPXORD Y24, Y24, Y24
	VPXORD Y25, Y25, Y25
	VPXORD Y26, Y26, Y26
	VPXORD Y27, Y27, Y27
	XORQ   BX, BX

	PCALIGN $64
gv_k:
	CMPQ BX, CX
	JGE  gv_ktail
	GROUPV((R8)(BX*1), (R9)(BX*1), (R10)(BX*1), (R11)(BX*1))
	ADDQ $4, BX
	JMP  gv_k

gv_ktail:
	CMPQ 448(SP), $0
	JE   gv_store
	GROUPV(384(SP), 388(SP), 392(SP), 396(SP))

gv_store:
	OUTROWS
	EPIV(Y16, Y17, Y18)
	EPIV(Y19, Y20, Y21)
	EPIV(Y22, Y23, Y24)
	EPIV(Y25, Y26, Y27)
	CMPQ bias+48(FP), $0
	JE   gv_nobias
	BIASV(Y16, Y17, Y18)
	BIASV(Y19, Y20, Y21)
	BIASV(Y22, Y23, Y24)
	BIASV(Y25, Y26, Y27)

gv_nobias:
	STOREV(R8, Y16, Y17, Y18)
	STOREV(R9, Y19, Y20, Y21)
	STOREV(R10, Y22, Y23, Y24)
	STOREV(R11, Y25, Y26, Y27)
	NEXT(3, gv_tile, gv_block)
	VZEROUPPER
	RET
