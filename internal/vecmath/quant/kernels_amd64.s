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

// Whole-list gathers. Each scores every row ids names against one prepared
// query and writes float32(sum)*mul, the bits (*Quantizer).L2 and
// (*Quantizer4).L2 produce, so the result is bit-identical to the per-row
// calls: the sums are integer, and the conversion and the multiply are the
// single roundings Go's float32(int32)*float32 performs. Like
// vecmath.l2RowsAVX2 they walk ids with one cursor (R10, scoring) while a
// second (BX) runs ahead issuing prefetches: BX first leads by as many rows
// as fill `window` bytes (at least one), then fetches one row per row
// scored. Registers shared by both: R8 the code slab, R9 the row stride in
// bytes, SI the levels, R11 the end of ids, R12 the out cursor, X8 mul.

// PREFETCHCODES prefetches every cache line of the code row ids[BX]: one
// PREFETCHT0 per 64 bytes from its first byte, then its last byte, which
// covers the extra line an unaligned row straddles. Clobbers AX, CX.
#define PREFETCHCODES(loop) \
	MOVLQSX (BX), AX; \
	IMULQ R9, AX; \
	ADDQ  R8, AX; \
	LEAQ  -1(AX)(R9*1), CX; \
loop: \
	PREFETCHT0 (AX); \
	ADDQ $64, AX; \
	CMPQ AX, CX; \
	JBE  loop; \
	PREFETCHT0 (CX)

// LEADCODES issues the lead prefetches: rows from ids[0] on until about
// R13 bytes are in flight, at least one.
#define LEADCODES(lead, leadline, score) \
	MOVQ R10, BX; \
lead: \
	CMPQ BX, R11; \
	JAE  score; \
	PREFETCHCODES(leadline); \
	ADDQ $4, BX; \
	SUBQ R9, R13; \
	JG   lead

// NEXTROW issues the next prefetch, if any row is left to fetch, and points
// AX at the code row ids[R10] and DI at the levels.
#define NEXTROW(rowline, nofetch) \
	CMPQ BX, R11; \
	JAE  nofetch; \
	PREFETCHCODES(rowline); \
	ADDQ $4, BX; \
nofetch: \
	MOVLQSX (R10), AX; \
	IMULQ R9, AX; \
	ADDQ  R8, AX; \
	MOVQ  SI, DI

// HSUMD folds the dword lanes of Y0 and Y4 into DX.
#define HSUMD \
	VPADDD Y4, Y0, Y0; \
	VEXTRACTI128 $1, Y0, X1; \
	VPADDD X1, X0, X0; \
	VPSHUFD $0x4E, X0, X1; \
	VPADDD X1, X0, X0; \
	VPSHUFD $0xB1, X0, X1; \
	VPADDD X1, X0, X0; \
	VMOVD X0, DX

// STORESUM writes float32(DX)*mul to the out cursor and advances both
// cursors.
#define STORESUM \
	VCVTSI2SSL DX, X1, X1; \
	VMULSS X8, X1, X1; \
	VMOVSS X1, (R12); \
	ADDQ $4, R10; \
	ADDQ $4, R12

// func l2CodeRowsAVX2(codes *uint8, dim int, levels *int16, ids *int32, n int, out *float32, mul float32, window int)
//
// SQ8: the row stride is dim. Per row, l2Levels16AVX2's arithmetic in blocks
// of 64 and then 16 dimensions, then the < 16 tail dimensions one at a time
// in integers. When dim is a multiple of 16 (no tail) rows go in pairs.
TEXT ·l2CodeRowsAVX2(SB), NOSPLIT, $0-64
	MOVQ dim+8(FP), R9
	MOVQ codes+0(FP), R8
	MOVQ levels+16(FP), SI
	MOVQ ids+24(FP), R10
	MOVQ n+32(FP), R11
	LEAQ (R10)(R11*4), R11        // end of ids
	MOVQ out+40(FP), R12
	VBROADCASTSS mul+48(FP), X8
	MOVQ window+56(FP), R13
	LEADCODES(lead8, leadline8, start8)

start8:
	TESTQ $15, R9
	JNZ   row8                    // tail dimensions: one row at a time

	// Two rows at a time while two are left: the level loads are shared
	// and the two sums are folded, converted and stored together.
pair8:
	LEAQ 4(R10), AX
	CMPQ AX, R11
	JAE  row8
	CMPQ BX, R11
	JAE  pairrows8
	PREFETCHCODES(pairline0)
	ADDQ $4, BX
	CMPQ BX, R11
	JAE  pairrows8
	PREFETCHCODES(pairline1)
	ADDQ $4, BX

pairrows8:
	MOVLQSX (R10), AX
	IMULQ R9, AX
	ADDQ  R8, AX
	MOVLQSX 4(R10), DX
	IMULQ R9, DX
	ADDQ  R8, DX
	MOVQ  SI, DI
	MOVQ  R9, CX
	VPXOR Y0, Y0, Y0
	VPXOR Y6, Y6, Y6

pair64:
	CMPQ CX, $64
	JL   pair16
	VMOVDQU   (DI), Y1
	VPMOVZXBW (AX), Y2
	VPSUBW    Y1, Y2, Y2
	VPMADDWD  Y2, Y2, Y2
	VPADDD    Y2, Y0, Y0
	VPMOVZXBW (DX), Y3
	VPSUBW    Y1, Y3, Y3
	VPMADDWD  Y3, Y3, Y3
	VPADDD    Y3, Y6, Y6
	VMOVDQU   32(DI), Y1
	VPMOVZXBW 16(AX), Y2
	VPSUBW    Y1, Y2, Y2
	VPMADDWD  Y2, Y2, Y2
	VPADDD    Y2, Y0, Y0
	VPMOVZXBW 16(DX), Y3
	VPSUBW    Y1, Y3, Y3
	VPMADDWD  Y3, Y3, Y3
	VPADDD    Y3, Y6, Y6
	VMOVDQU   64(DI), Y1
	VPMOVZXBW 32(AX), Y2
	VPSUBW    Y1, Y2, Y2
	VPMADDWD  Y2, Y2, Y2
	VPADDD    Y2, Y0, Y0
	VPMOVZXBW 32(DX), Y3
	VPSUBW    Y1, Y3, Y3
	VPMADDWD  Y3, Y3, Y3
	VPADDD    Y3, Y6, Y6
	VMOVDQU   96(DI), Y1
	VPMOVZXBW 48(AX), Y2
	VPSUBW    Y1, Y2, Y2
	VPMADDWD  Y2, Y2, Y2
	VPADDD    Y2, Y0, Y0
	VPMOVZXBW 48(DX), Y3
	VPSUBW    Y1, Y3, Y3
	VPMADDWD  Y3, Y3, Y3
	VPADDD    Y3, Y6, Y6
	ADDQ $64, AX
	ADDQ $64, DX
	ADDQ $128, DI
	SUBQ $64, CX
	JMP  pair64

pair16:
	CMPQ CX, $16
	JL   pairsum
	VMOVDQU   (DI), Y1
	VPMOVZXBW (AX), Y2
	VPSUBW    Y1, Y2, Y2
	VPMADDWD  Y2, Y2, Y2
	VPADDD    Y2, Y0, Y0
	VPMOVZXBW (DX), Y3
	VPSUBW    Y1, Y3, Y3
	VPMADDWD  Y3, Y3, Y3
	VPADDD    Y3, Y6, Y6
	ADDQ $16, AX
	ADDQ $16, DX
	ADDQ $32, DI
	SUBQ $16, CX
	JMP  pair16

pairsum:
	// Per 128-bit half [r0 0+1, r0 2+3, r1 0+1, r1 2+3]; then the halves
	// added; then [r0, r1, r0, r1].
	VPHADDD Y6, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD  X1, X0, X0
	VPHADDD X0, X0, X0
	VCVTDQ2PS X0, X0
	VMULPS  X8, X0, X0
	VMOVQ   X0, (R12)
	ADDQ $8, R10
	ADDQ $8, R12
	JMP  pair8

row8:
	CMPQ R10, R11
	JAE  done8
	NEXTROW(rowline8, nofetch8)
	MOVQ R9, CX
	VPXOR Y0, Y0, Y0
	VPXOR Y4, Y4, Y4

	// code - level squares the same as level - code, and lets the level
	// load fold into the subtract.
block64:
	CMPQ CX, $64
	JL   block16
	VPMOVZXBW (AX), Y1
	VPSUBW    (DI), Y1, Y1
	VPMADDWD  Y1, Y1, Y1
	VPADDD    Y1, Y0, Y0
	VPMOVZXBW 16(AX), Y2
	VPSUBW    32(DI), Y2, Y2
	VPMADDWD  Y2, Y2, Y2
	VPADDD    Y2, Y4, Y4
	VPMOVZXBW 32(AX), Y3
	VPSUBW    64(DI), Y3, Y3
	VPMADDWD  Y3, Y3, Y3
	VPADDD    Y3, Y0, Y0
	VPMOVZXBW 48(AX), Y5
	VPSUBW    96(DI), Y5, Y5
	VPMADDWD  Y5, Y5, Y5
	VPADDD    Y5, Y4, Y4
	ADDQ $64, AX
	ADDQ $128, DI
	SUBQ $64, CX
	JMP  block64

block16:
	CMPQ CX, $16
	JL   sum8
	VPMOVZXBW (AX), Y1
	VPSUBW    (DI), Y1, Y1
	VPMADDWD  Y1, Y1, Y1
	VPADDD    Y1, Y0, Y0
	ADDQ $16, AX
	ADDQ $32, DI
	SUBQ $16, CX
	JMP  block16

sum8:
	HSUMD

tail8:
	TESTQ CX, CX
	JZ    store8
	MOVWLSX (DI), R13
	MOVBLZX (AX), R14
	SUBL    R14, R13
	IMULL   R13, R13
	ADDL    R13, DX
	ADDQ $2, DI
	INCQ AX
	DECQ CX
	JMP  tail8

store8:
	STORESUM
	JMP row8

done8:
	VZEROUPPER
	RET

// func l2Code4RowsAVX2(codes *uint8, stride int, levels *int16, ids *int32, n int, out *float32, mul float32, window int, dim int)
//
// Packed int4: rows are stride = (dim+1)/2 bytes. Per row, l2Levels4AVX2's
// blocks of 32 dimensions (16 code bytes), then the < 32 tail dimensions a
// byte (two nibbles) at a time, and for an odd dim the last low nibble.
TEXT ·l2Code4RowsAVX2(SB), NOSPLIT, $0-72
	MOVQ stride+8(FP), R9
	MOVQ $0x0f0f0f0f0f0f0f0f, AX
	MOVQ AX, X9
	VPBROADCASTQ X9, X9           // per-byte nibble mask
	MOVQ codes+0(FP), R8
	MOVQ levels+16(FP), SI
	MOVQ ids+24(FP), R10
	MOVQ n+32(FP), R11
	LEAQ (R10)(R11*4), R11        // end of ids
	MOVQ out+40(FP), R12
	VMOVSS mul+48(FP), X8
	MOVQ window+56(FP), R13
	LEADCODES(lead4, leadline4, row4)

row4:
	CMPQ R10, R11
	JAE  done4rows
	NEXTROW(rowline4, nofetch4)
	MOVQ dim+64(FP), CX
	VPXOR Y0, Y0, Y0
	VPXOR Y4, Y4, Y4

block4:
	CMPQ CX, $32
	JL   sum4
	VMOVDQU (AX), X1              // 16 packed bytes = 32 dims
	VPSRLW  $4, X1, X2
	VPAND   X9, X1, X1            // even-dim nibbles, one per byte
	VPAND   X9, X2, X2            // odd-dim nibbles, one per byte
	VPUNPCKLBW X2, X1, X3         // dims 0..15 in order
	VPUNPCKHBW X2, X1, X5         // dims 16..31
	VPMOVZXBW X3, Y3
	VMOVDQU (DI), Y6
	VPSUBW   Y3, Y6, Y6
	VPMADDWD Y6, Y6, Y6
	VPADDD   Y6, Y0, Y0
	VPMOVZXBW X5, Y5
	VMOVDQU 32(DI), Y7
	VPSUBW   Y5, Y7, Y7
	VPMADDWD Y7, Y7, Y7
	VPADDD   Y7, Y4, Y4
	ADDQ $16, AX
	ADDQ $64, DI
	SUBQ $32, CX
	JMP  block4

sum4:
	HSUMD

pair4:
	CMPQ CX, $2
	JL   odd4
	MOVBLZX (AX), R13
	ANDL    $15, R13
	MOVWLSX (DI), R14
	SUBL    R13, R14
	IMULL   R14, R14
	ADDL    R14, DX
	MOVBLZX (AX), R13
	SHRL    $4, R13
	MOVWLSX 2(DI), R14
	SUBL    R13, R14
	IMULL   R14, R14
	ADDL    R14, DX
	INCQ AX
	ADDQ $4, DI
	SUBQ $2, CX
	JMP  pair4

odd4:
	TESTQ CX, CX
	JZ    store4
	MOVBLZX (AX), R13
	ANDL    $15, R13
	MOVWLSX (DI), R14
	SUBL    R13, R14
	IMULL   R14, R14
	ADDL    R14, DX

store4:
	STORESUM
	JMP row4

done4rows:
	VZEROUPPER
	RET
