//go:build !noasm

// AVX2 body of GemmF32 (gemm.go). No FMA: each product is a VMULPS and each
// accumulation a VADDPS, so every lane holds the sum the Go reference's lane
// holds, and the reduction below is laneSum's tree, so the two agree bit for
// bit.
//
// Every body here starts with PCALIGN $64, and each inner loop's label
// follows one: a body's speed moved with its 64-byte phase in the binary,
// which any change elsewhere in the program could flip, so the entry and
// the loops' back-edge targets sit on 64-byte boundaries whatever precedes
// them.

#include "textflag.h"

// func gemmF32Asm(c, a, w, bias *float32, m, k, n, ldc, lda, ldw int)
//
// m, n ≥ 1; bias may be nil, and a and w are not read when k is 0. The
// output is computed in tiles of two a rows by four w rows, eight 8-lane
// accumulators (Y0-Y3 for the first a row, Y4-Y7 for the second), element p
// of the reduction in lane p mod 8: k is consumed eight at a time, and its
// last k mod 8 elements through VMASKMOVPS under Y15, whose masked-off lanes
// read +0 and add +0 to a lane that can never be −0. A last tile of one a
// row points its second row at the first; a last panel of fewer than four
// w rows points its missing rows at the panel's first. Each output is
// computed alone either way, and only those that exist are stored (a
// partial panel under the four-lane mask X14).
//
// Registers: SI, DX the tile's a rows; R8, R11, R12, R13 its w rows; DI the
// first c row; BX the byte offset into the reduction, CX its multiple-of-8
// part; R9 the a rows left; R10 the byte offset of the panel's first output
// column.
TEXT ·gemmF32Asm(SB), NOSPLIT, $0-80
	PCALIGN $64
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ m+32(FP), R9
	MOVQ k+40(FP), CX
	MOVQ CX, AX
	ANDQ $7, AX
	SHLQ $2, AX
	LEAQ ·tailMask+32(SB), BX
	SUBQ AX, BX
	VMOVDQU (BX), Y15
	ANDQ $-8, CX
	SHLQ $2, CX

gf_tile_rows:
	MOVQ SI, DX
	CMPQ R9, $2
	JL   gf_one_row
	MOVQ lda+64(FP), AX
	LEAQ (SI)(AX*4), DX

gf_one_row:
	MOVQ w+16(FP), R8
	XORQ R10, R10

gf_panel:
	MOVQ n+48(FP), AX
	SHLQ $2, AX
	SUBQ R10, AX
	JLE  gf_next_rows
	MOVQ ldw+72(FP), BX
	SHLQ $2, BX
	MOVQ R8, R11
	MOVQ R8, R12
	MOVQ R8, R13
	CMPQ AX, $8
	JL   gf_zero
	LEAQ (R8)(BX*1), R11
	CMPQ AX, $12
	JL   gf_zero
	LEAQ (R11)(BX*1), R12
	CMPQ AX, $16
	JL   gf_zero
	LEAQ (R12)(BX*1), R13

gf_zero:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ   BX, BX

	PCALIGN $64
gf_k8:
	CMPQ    BX, CX
	JGE     gf_ktail
	VMOVUPS (SI)(BX*1), Y8
	VMOVUPS (DX)(BX*1), Y9
	VMOVUPS (R8)(BX*1), Y10
	VMULPS  Y10, Y8, Y11
	VADDPS  Y11, Y0, Y0
	VMULPS  Y10, Y9, Y11
	VADDPS  Y11, Y4, Y4
	VMOVUPS (R11)(BX*1), Y10
	VMULPS  Y10, Y8, Y11
	VADDPS  Y11, Y1, Y1
	VMULPS  Y10, Y9, Y11
	VADDPS  Y11, Y5, Y5
	VMOVUPS (R12)(BX*1), Y10
	VMULPS  Y10, Y8, Y11
	VADDPS  Y11, Y2, Y2
	VMULPS  Y10, Y9, Y11
	VADDPS  Y11, Y6, Y6
	VMOVUPS (R13)(BX*1), Y10
	VMULPS  Y10, Y8, Y11
	VADDPS  Y11, Y3, Y3
	VMULPS  Y10, Y9, Y11
	VADDPS  Y11, Y7, Y7
	ADDQ    $32, BX
	JMP     gf_k8

gf_ktail:
	MOVQ       k+40(FP), AX
	TESTQ      $7, AX
	JZ         gf_reduce
	VMASKMOVPS (SI)(BX*1), Y15, Y8
	VMASKMOVPS (DX)(BX*1), Y15, Y9
	VMASKMOVPS (R8)(BX*1), Y15, Y10
	VMULPS     Y10, Y8, Y11
	VADDPS     Y11, Y0, Y0
	VMULPS     Y10, Y9, Y11
	VADDPS     Y11, Y4, Y4
	VMASKMOVPS (R11)(BX*1), Y15, Y10
	VMULPS     Y10, Y8, Y11
	VADDPS     Y11, Y1, Y1
	VMULPS     Y10, Y9, Y11
	VADDPS     Y11, Y5, Y5
	VMASKMOVPS (R12)(BX*1), Y15, Y10
	VMULPS     Y10, Y8, Y11
	VADDPS     Y11, Y2, Y2
	VMULPS     Y10, Y9, Y11
	VADDPS     Y11, Y6, Y6
	VMASKMOVPS (R13)(BX*1), Y15, Y10
	VMULPS     Y10, Y8, Y11
	VADDPS     Y11, Y3, Y3
	VMULPS     Y10, Y9, Y11
	VADDPS     Y11, Y7, Y7

gf_reduce:
	// laneSum for all eight accumulators at once, s the lanes of one:
	// t_j = s_j + s_(j+4), pairing each w row's two accumulators in the
	// halves of one register (Y0 = [row 0, w0 | row 1, w0] and so on);
	// u_0 = t_0 + t_2 and u_1 = t_1 + t_3, two w rows per register; then
	// u_0 + u_1, leaving [row 0, w0..w3 | row 1, w0..w3] in Y0.
	VPERM2F128 $0x20, Y4, Y0, Y8
	VPERM2F128 $0x31, Y4, Y0, Y9
	VADDPS     Y9, Y8, Y0
	VPERM2F128 $0x20, Y5, Y1, Y8
	VPERM2F128 $0x31, Y5, Y1, Y9
	VADDPS     Y9, Y8, Y1
	VPERM2F128 $0x20, Y6, Y2, Y8
	VPERM2F128 $0x31, Y6, Y2, Y9
	VADDPS     Y9, Y8, Y2
	VPERM2F128 $0x20, Y7, Y3, Y8
	VPERM2F128 $0x31, Y7, Y3, Y9
	VADDPS     Y9, Y8, Y3
	VSHUFPS    $0x44, Y1, Y0, Y8
	VSHUFPS    $0xee, Y1, Y0, Y9
	VADDPS     Y9, Y8, Y0
	VSHUFPS    $0x44, Y3, Y2, Y8
	VSHUFPS    $0xee, Y3, Y2, Y9
	VADDPS     Y9, Y8, Y2
	VHADDPS    Y2, Y0, Y0

	MOVQ n+48(FP), AX
	SHLQ $2, AX
	SUBQ R10, AX
	CMPQ AX, $16
	JL   gf_partial

	MOVQ           bias+24(FP), AX
	TESTQ          AX, AX
	JZ             gf_store4
	VBROADCASTF128 (AX)(R10*1), Y8
	VADDPS         Y8, Y0, Y0

gf_store4:
	VMOVUPS      X0, (DI)(R10*1)
	CMPQ         R9, $2
	JL           gf_next_panel
	MOVQ         ldc+56(FP), AX
	LEAQ         (DI)(AX*4), AX
	VEXTRACTF128 $1, Y0, (AX)(R10*1)

gf_next_panel:
	ADDQ $16, R10
	MOVQ ldw+72(FP), AX
	LEAQ (R13)(AX*4), R8
	JMP  gf_panel

gf_partial:
	// AX = 4 × the outputs left (1-3): X14 selects that many lanes.
	LEAQ        ·tailMask+32(SB), BX
	SUBQ        AX, BX
	VMOVDQU     (BX), X14
	MOVQ        bias+24(FP), AX
	TESTQ       AX, AX
	JZ          gf_store_partial
	VMASKMOVPS  (AX)(R10*1), X14, X8
	VINSERTF128 $1, X8, Y8, Y8
	VADDPS      Y8, Y0, Y0

gf_store_partial:
	VMASKMOVPS   X0, X14, (DI)(R10*1)
	CMPQ         R9, $2
	JL           gf_next_rows
	VEXTRACTF128 $1, Y0, X0
	MOVQ         ldc+56(FP), AX
	LEAQ         (DI)(AX*4), AX
	VMASKMOVPS   X0, X14, (AX)(R10*1)

gf_next_rows:
	MOVQ lda+64(FP), AX
	LEAQ (SI)(AX*8), SI
	MOVQ ldc+56(FP), AX
	LEAQ (DI)(AX*8), DI
	SUBQ $2, R9
	JG   gf_tile_rows
	VZEROUPPER
	RET
