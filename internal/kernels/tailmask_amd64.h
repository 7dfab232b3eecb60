// TAILMASK sets R10 to cols &^ 7, R9 to cols mod 8 and Y15 to the mask
// selecting the last R9 lanes' worth of a row, from cols in CX: the lanes
// VMASKMOVPS reads and writes of a row's last cols mod 8 elements, which
// neither read nor write past the row (tailMask, vecmath.go). Clobbers
// AX, BX.
#define TAILMASK \
	MOVQ    CX, R10; \
	ANDQ    $-8, R10; \
	MOVQ    CX, R9; \
	ANDQ    $7, R9; \
	LEAQ    ·tailMask+32(SB), AX; \
	MOVQ    R9, BX; \
	SHLQ    $2, BX; \
	SUBQ    BX, AX; \
	VMOVDQU (AX), Y15
