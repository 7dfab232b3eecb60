//go:build !noasm

// The CPU feature probe and the AVX2 bodies of the hash and DotI8 kernels.
// Plan 9 operand order: source(s) first, destination last.

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func hashBlocksAsm(lanes *uint64, p *byte, nblocks int)
//
// Absorbs nblocks 16-word blocks of 32-bit little-endian words at p into
// the 16 FNV-1a lane accumulators at lanes: lane j ^= word, lane j *=
// prime, for j = block word index. Lanes live four per register in Y0-Y3,
// giving four independent dependency chains — with fewer, the decomposed
// multiply below is pure latency and the kernel loses to scalar IMUL
// chains. AVX2 has no packed 64×64 multiply, so h*prime mod 2^64 is
// decomposed around prime = ph·2^32 + pl (ph = 0x100, pl = 0x1B3):
//
//	h·prime ≡ lo(h)·pl + ((hi(h)·pl + lo(h)·ph) << 32)
//
// lo(h)·pl and hi(h)·pl are VPMULUDQ; lo(h)·ph is a left shift by 8 (only
// the low 32 bits of the parenthesized sum survive the <<32, so shifting
// all of h is equivalent and saves the mask). hi(h) reaches VPMULUDQ's
// even-dword operand slots via VPSHUFD (a shuffle-port op, keeping the
// shift/multiply ports for the arithmetic) — the odd dwords it also copies
// are ignored by VPMULUDQ.
TEXT ·hashBlocksAsm(SB), NOSPLIT, $0-24
	MOVQ lanes+0(FP), DI
	MOVQ p+8(FP), SI
	MOVQ nblocks+16(FP), CX
	TESTQ CX, CX
	JZ   hash_ret
	MOVQ $0x1B3, AX
	MOVQ AX, X15
	VPBROADCASTQ X15, Y15   // pl splat across the four 64-bit lanes
	VMOVDQU (DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 64(DI), Y2
	VMOVDQU 96(DI), Y3
hash_loop:
	VPMOVZXDQ (SI), Y4      // 4 dwords -> 4 zero-extended qwords
	VPMOVZXDQ 16(SI), Y5
	VPMOVZXDQ 32(SI), Y6
	VPMOVZXDQ 48(SI), Y7
	VPXOR Y4, Y0, Y0
	VPXOR Y5, Y1, Y1
	VPXOR Y6, Y2, Y2
	VPXOR Y7, Y3, Y3
	VPMULUDQ Y15, Y0, Y4    // lo(h)*pl
	VPSHUFD $0xF5, Y0, Y5   // hi(h) into the even dword slots
	VPMULUDQ Y15, Y5, Y5    // hi(h)*pl
	VPSLLQ $8, Y0, Y6       // lo(h)*ph (low 32 bits are all that survive)
	VPADDQ Y6, Y5, Y5
	VPSLLQ $32, Y5, Y5
	VPADDQ Y5, Y4, Y0
	VPMULUDQ Y15, Y1, Y4
	VPSHUFD $0xF5, Y1, Y5
	VPMULUDQ Y15, Y5, Y5
	VPSLLQ $8, Y1, Y6
	VPADDQ Y6, Y5, Y5
	VPSLLQ $32, Y5, Y5
	VPADDQ Y5, Y4, Y1
	VPMULUDQ Y15, Y2, Y4
	VPSHUFD $0xF5, Y2, Y5
	VPMULUDQ Y15, Y5, Y5
	VPSLLQ $8, Y2, Y6
	VPADDQ Y6, Y5, Y5
	VPSLLQ $32, Y5, Y5
	VPADDQ Y5, Y4, Y2
	VPMULUDQ Y15, Y3, Y4
	VPSHUFD $0xF5, Y3, Y5
	VPMULUDQ Y15, Y5, Y5
	VPSLLQ $8, Y3, Y6
	VPADDQ Y6, Y5, Y5
	VPSLLQ $32, Y5, Y5
	VPADDQ Y5, Y4, Y3
	ADDQ $64, SI
	DECQ CX
	JNZ  hash_loop
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
hash_ret:
	VZEROUPPER
	RET

// func dotI8Asm(a, b *int8, n int) int32
TEXT ·dotI8Asm(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	VPXOR Y0, Y0, Y0
	VPXOR Y4, Y4, Y4
	MOVQ CX, DX
	SHRQ $5, DX          // 32 int8 per iteration, two accumulator chains
	JZ   i8_reduce
i8_loop32:
	VPMOVSXBW (SI), Y1   // 16 int8 -> 16 int16
	VPMOVSXBW (DI), Y2
	VPMADDWD Y2, Y1, Y3  // pairwise int16 products summed to 8 int32
	VPADDD Y3, Y0, Y0
	VPMOVSXBW 16(SI), Y1
	VPMOVSXBW 16(DI), Y2
	VPMADDWD Y2, Y1, Y3
	VPADDD Y3, Y4, Y4
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ DX
	JNZ  i8_loop32
i8_reduce:
	VPADDD Y4, Y0, Y0
	ANDQ $31, CX

	// 16-wide tail step: one more widening multiply-accumulate on Y0.
	CMPQ CX, $16
	JL   i8_fold
	VPMOVSXBW (SI), Y1
	VPMOVSXBW (DI), Y2
	VPMADDWD Y2, Y1, Y3
	VPADDD Y3, Y0, Y0
	ADDQ $16, SI
	ADDQ $16, DI
	SUBQ $16, CX

i8_fold:
	VEXTRACTI128 $1, Y0, X1
	VPADDD X1, X0, X0

	// 8-wide tail step on the folded xmm accumulator (after the 128-bit
	// fold so the VEX write to X0 cannot clobber a live upper lane).
	CMPQ CX, $8
	JL   i8_hsum
	VPMOVSXBW (SI), X1
	VPMOVSXBW (DI), X2
	VPMADDWD X2, X1, X3
	VPADDD X3, X0, X0
	ADDQ $8, SI
	ADDQ $8, DI
	SUBQ $8, CX

i8_hsum:
	VPSHUFD $0x4E, X0, X1
	VPADDD X1, X0, X0
	VPSHUFD $0xB1, X0, X1
	VPADDD X1, X0, X0
	VMOVD X0, AX
	TESTQ CX, CX
	JZ   i8_done
i8_tail:
	MOVBLSX (SI), R8
	MOVBLSX (DI), R9
	IMULL R9, R8
	ADDL R8, AX
	INCQ SI
	INCQ DI
	DECQ CX
	JNZ  i8_tail
i8_done:
	MOVL AX, ret+24(FP)
	VZEROUPPER
	RET
