//go:build amd64

#include "textflag.h"

// Both kernels reproduce the scalar loop in vecmath.go bit for bit, which
// pins the arithmetic: ONE 8-lane accumulator per row (lane j is the scalar
// loop's s_j; a second chain would reorder the sums), separate VSUBPS /
// VMULPS / VADDPS (an FMA would skip the rounding of d*d), and a horizontal
// sum in the order Go parses (s0+s1)+(s2+s3)+(s4+s5)+(s6+s7): left to right.

// BLOCKS accumulates (q[i]-r[i])² over the whole 8-float blocks of CX
// elements at DI (q) and AX (r) into Y0, advancing DI, AX and leaving the
// remainder (< 8) in CX.
#define BLOCKS(loop, end) \
	VXORPS Y0, Y0, Y0; \
loop: \
	CMPQ CX, $8; \
	JL   end; \
	VMOVUPS (DI), Y1; \
	VSUBPS  (AX), Y1, Y1; \
	VMULPS  Y1, Y1, Y1; \
	VADDPS  Y1, Y0, Y0; \
	ADDQ $32, DI; \
	ADDQ $32, AX; \
	SUBQ $8, CX; \
	JMP  loop; \
end:

// HSUM folds Y0 = [s0 .. s7] into X0[0] = (((s0+s1)+(s2+s3))+(s4+s5))+(s6+s7).
// VHADDPS gives [A B A B | C D C D] with A = s0+s1, B = s2+s3, C = s4+s5,
// D = s6+s7; the three scalar adds then run in source order.
#define HSUM \
	VHADDPS Y0, Y0, Y0; \
	VEXTRACTF128 $1, Y0, X2; \
	VMOVSHDUP X0, X1; \
	VADDSS X1, X0, X0; \
	VADDSS X2, X0, X0; \
	VMOVSHDUP X2, X2; \
	VADDSS X2, X0, X0

// func l2AVX2(a, b *float32, n int) float32
TEXT ·l2AVX2(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), DI
	MOVQ b+8(FP), AX
	MOVQ n+16(FP), CX
	BLOCKS(l2loop, l2end)
	HSUM
	VZEROUPPER
	MOVSS X0, ret+24(FP)
	RET

// PREFETCHROW prefetches every cache line of row ids[BX]: one PREFETCHT0
// per 64 bytes from the row's first byte, then its last byte, which covers
// the extra line an unaligned row straddles. Clobbers AX, CX.
#define PREFETCHROW(loop) \
	MOVLQSX (R10)(BX*4), AX; \
	IMULQ R14, AX; \
	ADDQ  R8, AX; \
	LEAQ  -1(AX)(R14*1), CX; \
loop: \
	PREFETCHT0 (AX); \
	ADDQ $64, AX; \
	CMPQ AX, CX; \
	JBE  loop; \
	PREFETCHT0 (CX)

// func l2RowsAVX2(data *float32, dim int, query *float32, ids *int32, n int, out *float32, window int)
//
// DX walks ids scoring rows; BX runs in front of it issuing prefetches, so
// the misses of a gather overlap each other and the arithmetic instead of
// being taken one after another. BX first leads by as many rows as it takes
// to put `window` bytes in flight (at least one), and from then on fetches
// one row per row scored.
//
// Rows are scored four at a time. Each of the four keeps its own 8-lane
// accumulator and runs L2's VSUBPS / VMULPS / VADDPS sequence against one
// shared load of the query block, so the four chains overlap instead of
// each waiting on its own adds. The four horizontal sums are one transpose:
// VHADDPS pairs each row's lanes into A = s0+s1, B = s2+s3, C = s4+s5,
// D = s6+s7, VSHUFPS gathers the A, B, C and D of all four rows into one
// vector each, and ((A+B)+C)+D then runs vertically, the scalar
// expression's order. The < 8 tail elements are added in index order to all
// four sums at once. Rows left after the last group of four go through the
// one-row loop: blocks, HSUM, then the tail, exactly as the scalar loop.
TEXT ·l2RowsAVX2(SB), NOSPLIT, $0-56
	MOVQ data+0(FP), R8
	MOVQ dim+8(FP), R9
	MOVQ query+16(FP), SI
	MOVQ ids+24(FP), R10
	MOVQ n+32(FP), R11
	MOVQ out+40(FP), R12
	MOVQ window+48(FP), R13
	MOVQ R9, R14
	SHLQ $2, R14                  // row stride in bytes
	MOVQ R14, R9
	ANDQ $-32, R9                 // bytes of whole 8-float blocks per row
	XORQ BX, BX

lead:
	CMPQ BX, R11
	JGE  score
	PREFETCHROW(leadline)
	INCQ BX
	SUBQ R14, R13
	JG   lead

score:
	XORQ DX, DX

group:
	LEAQ 4(DX), AX
	CMPQ AX, R11
	JG   row
	MOVQ $4, R15

fetch4:
	CMPQ BX, R11
	JGE  load4
	PREFETCHROW(fetch4line)
	INCQ BX
	DECQ R15
	JNZ  fetch4

load4:
	MOVLQSX (R10)(DX*4), AX
	IMULQ R14, AX
	ADDQ  R8, AX
	MOVLQSX 4(R10)(DX*4), CX
	IMULQ R14, CX
	ADDQ  R8, CX
	MOVLQSX 8(R10)(DX*4), DI
	IMULQ R14, DI
	ADDQ  R8, DI
	MOVLQSX 12(R10)(DX*4), R13
	IMULQ R14, R13
	ADDQ  R8, R13
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ R15, R15                 // byte offset into the four rows and the query

block4:
	CMPQ R15, R9
	JGE  sum4
	VMOVUPS (SI)(R15*1), Y4
	VSUBPS  (AX)(R15*1), Y4, Y5
	VSUBPS  (CX)(R15*1), Y4, Y6
	VSUBPS  (DI)(R15*1), Y4, Y7
	VSUBPS  (R13)(R15*1), Y4, Y8
	VMULPS  Y5, Y5, Y5
	VMULPS  Y6, Y6, Y6
	VMULPS  Y7, Y7, Y7
	VMULPS  Y8, Y8, Y8
	VADDPS  Y5, Y0, Y0
	VADDPS  Y6, Y1, Y1
	VADDPS  Y7, Y2, Y2
	VADDPS  Y8, Y3, Y3
	ADDQ $32, R15
	JMP  block4

sum4:
	// Y4 = [A0 B0 A1 B1 | C0 D0 C1 D1], Y5 the same for rows 2 and 3;
	// Y6 = [A0 A1 A2 A3 | C0 C1 C2 C3], Y7 = [B0 B1 B2 B3 | D0 D1 D2 D3].
	VHADDPS Y1, Y0, Y4
	VHADDPS Y3, Y2, Y5
	VSHUFPS $0x88, Y5, Y4, Y6
	VSHUFPS $0xdd, Y5, Y4, Y7
	VADDPS  X7, X6, X0
	VEXTRACTF128 $1, Y6, X1
	VADDPS  X1, X0, X0
	VEXTRACTF128 $1, Y7, X2
	VADDPS  X2, X0, X0

tail4:
	CMPQ R15, R14
	JGE  store4
	VBROADCASTSS (SI)(R15*1), X4
	VMOVSS (AX)(R15*1), X5
	VINSERTPS $0x10, (CX)(R15*1), X5, X5
	VINSERTPS $0x20, (DI)(R15*1), X5, X5
	VINSERTPS $0x30, (R13)(R15*1), X5, X5
	VSUBPS X5, X4, X5
	VMULPS X5, X5, X5
	VADDPS X5, X0, X0
	ADDQ $4, R15
	JMP  tail4

store4:
	VMOVUPS X0, (R12)(DX*4)
	ADDQ $4, DX
	JMP  group

row:
	CMPQ DX, R11
	JGE  done
	CMPQ BX, R11
	JGE  nofetch
	PREFETCHROW(rowline)
	INCQ BX

nofetch:
	MOVLQSX (R10)(DX*4), AX
	IMULQ R14, AX
	ADDQ  R8, AX
	MOVQ  SI, DI
	MOVQ  R14, CX
	SHRQ  $2, CX
	BLOCKS(rowblock, rowsum)
	HSUM

tail:
	TESTQ CX, CX
	JZ    store
	VMOVSS (DI), X1
	VSUBSS (AX), X1, X1
	VMULSS X1, X1, X1
	VADDSS X1, X0, X0
	ADDQ $4, DI
	ADDQ $4, AX
	DECQ CX
	JMP  tail

store:
	VMOVSS X0, (R12)(DX*4)
	INCQ DX
	JMP  row

done:
	VZEROUPPER
	RET
