package quant

import "repro/internal/cpu"

// Benchmark-only and pinned. The int4 serving path is gone; this leaf kernel
// stays because the repository benchmark's kernel microbenchmark
// (quant.int4_ns_per_eval) still calls L2Levels4, and the benchmark's
// pinned surface may only change in a change of its own. ROADMAP item 1(f)
// retires that metric and deletes this file, Stride4 and l2Levels4AVX2 with
// it. Nothing else in the repository calls them.
//
// The kernel scores a query of int16 levels, one per dimension, against a
// packed row of 4-bit codes: dimension 2i in the low nibble of byte i,
// dimension 2i+1 in the high one. Integer arithmetic end to end, so the
// AVX2 path is bit-identical to the scalar one.

// L2Levels4 returns the int32 accumulated squared level distance between a
// query (one int16 level per dimension) and one packed code row. code must
// hold at least Stride4(len(levels)) bytes; for odd lengths the final high
// nibble is ignored.
func L2Levels4(levels []int16, code []uint8) int32 {
	if len(code) < Stride4(len(levels)) {
		panic("quant: packed code row shorter than levels require")
	}
	if cpu.AVX2 && len(levels) >= 32 {
		n := len(levels) &^ 31
		s := l2Levels4AVX2(&levels[0], &code[0], n)
		return s + l2Levels4Tail(levels, code, n)
	}
	return l2Levels4Generic(levels, code)
}

// l2Levels4Generic is the portable scalar kernel: one code byte per
// iteration covers two dimensions, so a single pass already gives the
// 2-wide unroll the SQ8 kernel gets from indexing; two accumulator chains
// keep the integer ALUs busy without spilling addressing registers.
func l2Levels4Generic(levels []int16, code []uint8) int32 {
	var s0, s1 int32
	n := len(levels) &^ 1
	for i := 0; i < n; i += 2 {
		b := code[i>>1]
		d0 := int32(levels[i]) - int32(b&0x0f)
		d1 := int32(levels[i+1]) - int32(b>>4)
		s0 += d0 * d0
		s1 += d1 * d1
	}
	s := s0 + s1
	if n < len(levels) { // odd dimension: low nibble only, pad nibble unused
		d := int32(levels[n]) - int32(code[n>>1]&0x0f)
		s += d * d
	}
	return s
}

// l2Levels4Tail finishes the dimensions the 32-wide vector body left
// behind, starting at dimension n (always even, so nibble parity lines up
// with byte boundaries).
func l2Levels4Tail(levels []int16, code []uint8, n int) int32 {
	var s int32
	for i := n; i < len(levels); i++ {
		c := code[i>>1]
		if i&1 == 1 {
			c >>= 4
		}
		d := int32(levels[i]) - int32(c&0x0f)
		s += d * d
	}
	return s
}

// Stride4 returns the packed row width in bytes for a given dimension: two
// dimensions per byte, odd dimensions padded by one zero nibble.
func Stride4(dim int) int { return (dim + 1) / 2 }
