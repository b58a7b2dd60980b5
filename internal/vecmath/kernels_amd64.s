//go:build amd64

#include "textflag.h"

// Both kernels reproduce the scalar loop in vecmath.go bit for bit, which
// pins the arithmetic: ONE 8-lane accumulator (lane j is the scalar loop's
// s_j; a second chain would reorder the sums), separate VSUBPS / VMULPS /
// VADDPS (an FMA would skip the rounding of d*d), and a horizontal sum in
// the order Go parses (s0+s1)+(s2+s3)+(s4+s5)+(s6+s7): left to right.

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
// one row per row scored. Each row is the whole of L2: blocks, horizontal
// sum, then the < 8 tail elements added in index order, exactly as the
// scalar loop does.
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
	MOVQ  R9, CX
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
