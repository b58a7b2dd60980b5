package quant

import (
	"repro/internal/cpu"
	"repro/internal/vecmath"
)

// Int4 asymmetric distance kernels: a prepared query (int16 grid levels,
// one per dimension, see Quantizer4.PrepareInto) against packed nibble
// rows, accumulating in int32. The query side stays unpacked — only the
// stored codes pay the packing — so the inner loop is: unpack two nibbles,
// two subtracts, two multiply-accumulates per code byte. The amd64 path
// unpacks 16 code bytes (32 dimensions) per step with VPAND/VPSRLW, widens
// to words, and squares-and-pairs with VPMADDWD; integer arithmetic
// end to end, so the vector path is bit-identical to the scalar one.

// L2Levels4 returns the int32 accumulated squared level distance between a
// prepared query (one int16 level per dimension) and one packed code row.
// Multiply by Quantizer4.DistMul to convert to a squared-L2 approximation.
// code must hold at least Stride4(len(levels)) bytes; for odd lengths the
// final high nibble is ignored.
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

// L2 returns the approximate squared L2 distance between a prepared query
// and packed code row i of c.
func (q *Quantizer4) L2(levels []int16, c Code4Matrix, i int32) float32 {
	return float32(L2Levels4(levels, c.Row(int(i)))) * q.distMul
}

// L2ToRows is the batched gather kernel the quantized search loop uses: it
// writes the approximate squared distance from the prepared query to packed
// row ids[i] into out[i] for every i — the int4 twin of Quantizer.L2ToRows,
// one prefetching assembly call per list under AVX2 and a loop over the
// scalar kernel otherwise, bit-identical to q.L2(levels, c, ids[i]) either
// way. out must be at least len(ids) long; levels of another dimension or
// an id outside [0, c.Rows) panics.
func (q *Quantizer4) L2ToRows(c Code4Matrix, levels []int16, ids []int32, out []float32) {
	if len(out) < len(ids) {
		panic("quant: L2ToRows output shorter than ids")
	}
	if len(ids) == 0 {
		return
	}
	if len(levels) != c.Dim || c.Stride != Stride4(c.Dim) {
		panic("quant: level/code length mismatch")
	}
	checkRows(ids, c.Rows, c.Stride, len(c.Codes))
	if cpu.AVX2 {
		l2Code4RowsAVX2(&c.Codes[0], c.Stride, &levels[0], &ids[0], len(ids), &out[0], q.distMul, prefetchBytes, c.Dim)
		return
	}
	for i, id := range ids {
		out[i] = float32(l2Levels4Generic(levels, c.Row(int(id)))) * q.distMul
	}
}

// L2ToRowsCount is the Counter-aware twin of L2ToRows: same distances, one
// counter update of len(ids) evaluations. A nil counter is valid and counts
// nothing.
func (q *Quantizer4) L2ToRowsCount(counter *vecmath.Counter, c Code4Matrix, levels []int16, ids []int32, out []float32) {
	counter.AddN(uint64(len(ids)))
	q.L2ToRows(c, levels, ids, out)
}
