//go:build amd64

#include "textflag.h"

// Both kernels turn 32 rows into a 32-bit mask the same way: compare into
// all-ones or all-zero lanes, narrow the lanes to bytes with the saturating
// packs (which keep -1 and 0), put the bytes back in row order, and read
// their top bits with VPMOVMSKB. Two masks make one 64-row word. The packs
// work within each 128-bit lane, so they leave the 4-byte groups of rows
// 0-3, 8-11, 16-19, 24-27 in the low lane and 4-7, 12-15, 20-23, 28-31 in
// the high one; a VPERMD by 0,4,1,5,2,6,3,7 restores the order.

// EQ32 compares the 32 int32 rows at off(SI) with Y0 and leaves their mask,
// bit j for row j, in reg.
#define EQ32(off, reg) \
	VPCMPEQD  off+0(SI), Y0, Y1; \
	VPCMPEQD  off+32(SI), Y0, Y2; \
	VPCMPEQD  off+64(SI), Y0, Y3; \
	VPCMPEQD  off+96(SI), Y0, Y4; \
	VPACKSSDW Y2, Y1, Y1; \
	VPACKSSDW Y4, Y3, Y3; \
	VPACKSSWB Y3, Y1, Y1; \
	VPERMD    Y1, Y7, Y1; \
	VPMOVMSKB Y1, reg

// func eqBitsAVX2(dst *uint64, vals *int32, x int32, words int)
TEXT ·eqBitsAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         vals+8(FP), SI
	MOVL         x+16(FP), AX
	VMOVD        AX, X0
	VPBROADCASTD X0, Y0
	MOVQ         words+24(FP), CX
	MOVQ         $0x0703060205010400, AX
	VMOVQ        AX, X7
	VPMOVZXBD    X7, Y7                 // dword order 0,4,1,5,2,6,3,7

eqloop:
	EQ32(0, AX)
	EQ32(128, BX)
	SHLQ $32, BX
	ORQ  BX, AX
	MOVQ AX, (DI)
	ADDQ $256, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  eqloop
	VZEROUPPER
	RET

// OUT8 sets the 8 dword lanes of ra to all ones for each of the 8 int64
// rows at off(SI) that lies outside the range: ra's even dwords come from
// the first 4 rows, its odd ones from the next 4 (rb is scratch), so the
// dword order is rows 0,4,1,5 | 2,6,3,7. A row is outside when
// row+Y0 > Y6, signed (see rangeBitsAVX2).
#define OUT8(off, ra, rb) \
	VPADDQ   off+0(SI), Y0, ra; \
	VPCMPGTQ Y6, ra, ra; \
	VPADDQ   off+32(SI), Y0, rb; \
	VPCMPGTQ Y6, rb, rb; \
	VPBLENDD $0xAA, rb, ra, ra

// OUT32 leaves in reg the mask of the 32 int64 rows at off(SI) that lie
// outside the range, bit j for row j. OUT8's interleave survives the packs
// and VPERMD as the order 0,4,1,5,2,6,3,7 within every 8 bytes, which the
// in-lane VPSHUFB by Y8 undoes.
#define OUT32(off, reg) \
	OUT8(off+0, Y1, Y2); \
	OUT8(off+64, Y2, Y3); \
	VPACKSSDW Y2, Y1, Y1; \
	OUT8(off+128, Y2, Y3); \
	OUT8(off+192, Y3, Y4); \
	VPACKSSDW Y3, Y2, Y2; \
	VPACKSSWB Y2, Y1, Y1; \
	VPERMD    Y1, Y7, Y1; \
	VPSHUFB   Y8, Y1, Y1; \
	VPMOVMSKB Y1, reg

// func rangeBitsAVX2(dst *uint64, vals *int64, bias, limit int64, words int)
//
// AVX2 has no unsigned compare. rangeBits's test (v-lo) <= hi-lo, unsigned,
// becomes a signed one with the sign bit of both sides flipped:
// (v-lo)^2^63 = v+bias and (hi-lo)^2^63 = limit. The kernel finds the rows
// with v+bias > limit and complements the word.
TEXT ·rangeBitsAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         vals+8(FP), SI
	MOVQ         bias+16(FP), AX
	VMOVQ        AX, X0
	VPBROADCASTQ X0, Y0
	MOVQ         limit+24(FP), AX
	VMOVQ        AX, X6
	VPBROADCASTQ X6, Y6
	MOVQ         words+32(FP), CX
	MOVQ         $0x0703060205010400, AX
	VMOVQ        AX, X7
	VPMOVZXBD    X7, Y7                 // dword order 0,4,1,5,2,6,3,7
	MOVQ         $0x0705030106040200, AX
	MOVQ         $0x0F0D0B090E0C0A08, BX
	VMOVQ        AX, X8
	VPINSRQ      $1, BX, X8, X8
	VINSERTI128  $1, X8, Y8, Y8         // bytes 0,2,4,6,1,3,5,7 of every 8

rangeloop:
	OUT32(0, AX)
	OUT32(256, BX)
	SHLQ $32, BX
	ORQ  BX, AX
	NOTQ AX
	MOVQ AX, (DI)
	ADDQ $512, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  rangeloop
	VZEROUPPER
	RET
