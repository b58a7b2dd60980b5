//go:build amd64

#include "textflag.h"

// func l2Levels16AVX2(levels *int16, code *uint8, n int) int32
//
// Sums (levels[i] - code[i])^2 for i in [0, n), n a multiple of 16.
// Per 16 lanes: widen 16 code bytes to words (VPMOVZXBW), packed word
// subtract, then VPMADDWD squares each 16-bit diff and sums adjacent pairs
// into 8 int32 lanes — diffs are bounded by ±(255+queryPad), so the pair
// sums and the per-lane accumulation stay far below int32 overflow for
// every dimension up to MaxDim. The main loop handles 32 lanes with two
// independent accumulator chains.
TEXT ·l2Levels16AVX2(SB), NOSPLIT, $0-28
	MOVQ levels+0(FP), SI
	MOVQ code+8(FP), DI
	MOVQ n+16(FP), CX
	VPXOR Y0, Y0, Y0              // accumulator A
	VPXOR Y4, Y4, Y4              // accumulator B

loop32:
	CMPQ CX, $32
	JL   loop16
	VPMOVZXBW (DI), Y1            // 16 code bytes -> 16 words
	VMOVDQU   (SI), Y2            // 16 level words
	VPSUBW    Y1, Y2, Y3          // levels - code
	VPMADDWD  Y3, Y3, Y3          // pairwise d^2 sums -> 8 dwords
	VPADDD    Y3, Y0, Y0
	VPMOVZXBW 16(DI), Y5
	VMOVDQU   32(SI), Y6
	VPSUBW    Y5, Y6, Y7
	VPMADDWD  Y7, Y7, Y7
	VPADDD    Y7, Y4, Y4
	ADDQ $32, DI
	ADDQ $64, SI
	SUBQ $32, CX
	JMP  loop32

loop16:
	CMPQ CX, $16
	JL   done
	VPMOVZXBW (DI), Y1
	VMOVDQU   (SI), Y2
	VPSUBW    Y1, Y2, Y3
	VPMADDWD  Y3, Y3, Y3
	VPADDD    Y3, Y0, Y0
	ADDQ $16, DI
	ADDQ $32, SI
	SUBQ $16, CX
	JMP  loop16

done:
	VPADDD Y4, Y0, Y0
	// Horizontal sum of the 8 dword lanes.
	VEXTRACTI128 $1, Y0, X1
	VPADDD X1, X0, X0
	VPSHUFD $0x4E, X0, X1         // swap the two 64-bit halves
	VPADDD X1, X0, X0
	VPSHUFD $0xB1, X0, X1         // swap the two 32-bit pairs
	VPADDD X1, X0, X0
	VMOVD X0, AX
	VZEROUPPER
	MOVL AX, ret+24(FP)
	RET

// func l2Levels4AVX2(levels *int16, code *uint8, n int) int32
//
// Packed-nibble twin of l2Levels16AVX2: sums (levels[i] - nibble(code,i))^2
// for i in [0, n), n a multiple of 32 dimensions = 16 code bytes. Each code
// byte packs dimension 2j in its low nibble and 2j+1 in its high nibble
// (Code4Matrix layout), so one 16-byte load covers 32 dimensions:
// VPAND/VPSRLW split the even/odd nibbles into two byte vectors,
// VPUNPCK[LH]BW re-interleaves them into dimension order, VPMOVZXBW widens
// to words, and from there the body is the SQ8 kernel — packed word
// subtract, VPMADDWD pair-squares into int32 lanes, two accumulator
// chains. Diffs are bounded by +/-(15+queryPad4), so every intermediate
// stays far below int32 overflow up to MaxDim4; all-integer arithmetic
// keeps the result bit-identical to the scalar kernel.
TEXT ·l2Levels4AVX2(SB), NOSPLIT, $0-28
	MOVQ levels+0(FP), SI
	MOVQ code+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ $0x0f0f0f0f0f0f0f0f, AX
	MOVQ AX, X8
	VPBROADCASTQ X8, X8           // per-byte nibble mask
	VPXOR Y0, Y0, Y0              // accumulator A (dims 0..15 of each block)
	VPXOR Y9, Y9, Y9              // accumulator B (dims 16..31)

loop32q:
	CMPQ CX, $32
	JL   done4
	VMOVDQU (DI), X1              // 16 packed bytes = 32 dims
	VPSRLW  $4, X1, X2
	VPAND   X8, X1, X1            // even-dim nibbles, one per byte
	VPAND   X8, X2, X2            // odd-dim nibbles, one per byte
	VPUNPCKLBW X2, X1, X3         // interleave -> dims 0..15 in order
	VPUNPCKHBW X2, X1, X4         // dims 16..31
	VPMOVZXBW X3, Y3              // 16 nibble codes -> 16 words
	VMOVDQU (SI), Y5              // 16 level words
	VPSUBW   Y3, Y5, Y5           // levels - code
	VPMADDWD Y5, Y5, Y5           // pairwise d^2 sums -> 8 dwords
	VPADDD   Y5, Y0, Y0
	VPMOVZXBW X4, Y4
	VMOVDQU 32(SI), Y6
	VPSUBW   Y4, Y6, Y6
	VPMADDWD Y6, Y6, Y6
	VPADDD   Y6, Y9, Y9
	ADDQ $16, DI
	ADDQ $64, SI
	SUBQ $32, CX
	JMP  loop32q

done4:
	VPADDD Y9, Y0, Y0
	// Horizontal sum of the 8 dword lanes.
	VEXTRACTI128 $1, Y0, X1
	VPADDD X1, X0, X0
	VPSHUFD $0x4E, X0, X1         // swap the two 64-bit halves
	VPADDD X1, X0, X0
	VPSHUFD $0xB1, X0, X1         // swap the two 32-bit pairs
	VPADDD X1, X0, X0
	VMOVD X0, AX
	VZEROUPPER
	MOVL AX, ret+24(FP)
	RET
