package quant

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/vecmath"
)

// Asymmetric distance kernels: a prepared query (int16 grid levels, see
// Quantizer.PrepareInto) against uint8 code rows, accumulating in int32.
// Levels and diffs fit comfortably in 16 bits (levels span [-queryPad,
// 255+queryPad]), which is what lets the amd64 path process 16 dimensions
// per step: widen 16 code bytes to words, one packed subtract, then
// VPMADDWD squares-and-pairs into int32 lanes — integer arithmetic, so the
// vector path is bit-identical to the scalar one. On other architectures
// (or pre-AVX2 hardware) a 4-way unrolled scalar loop runs instead,
// following the style of vecmath.L2.

// L2Levels returns the int32 accumulated squared level distance between a
// prepared query and one code row. The row kernels below multiply it by the
// grid step squared (the quantizer's distMul) to get a squared-L2
// approximation. Panics if the lengths differ.
func L2Levels(levels []int16, code []uint8) int32 {
	if len(levels) != len(code) {
		panic("quant: level/code length mismatch")
	}
	if cpu.AVX2 && len(levels) >= 16 {
		n := len(levels) &^ 15
		s := l2Levels16AVX2(&levels[0], &code[0], n)
		for i := n; i < len(levels); i++ {
			d := int32(levels[i]) - int32(code[i])
			s += d * d
		}
		return s
	}
	return l2LevelsGeneric(levels, code)
}

// l2LevelsGeneric is the portable scalar kernel. Four accumulators (not
// eight, as the float kernels use): integer adds are single-cycle, so four
// chains already saturate the ALUs, and more would spill the general
// registers the loop also needs for addressing.
func l2LevelsGeneric(levels []int16, code []uint8) int32 {
	code = code[:len(levels)]
	var s0, s1, s2, s3 int32
	i := 0
	for ; i+4 <= len(levels); i += 4 {
		d0 := int32(levels[i]) - int32(code[i])
		d1 := int32(levels[i+1]) - int32(code[i+1])
		d2 := int32(levels[i+2]) - int32(code[i+2])
		d3 := int32(levels[i+3]) - int32(code[i+3])
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(levels); i++ {
		d := int32(levels[i]) - int32(code[i])
		s += d * d
	}
	return s
}

// L2 returns the approximate squared L2 distance between a prepared query
// and code row i of c.
func (q *Quantizer) L2(levels []int16, c CodeMatrix, i int32) float32 {
	return float32(L2Levels(levels, c.Row(int(i)))) * q.distMul
}

// L2ToRows is the batched gather kernel the quantized search loop uses: it
// writes the approximate squared distance from the prepared query to code
// row ids[i] into out[i] for every i — the SQ8 twin of vecmath.L2ToRows.
// With AVX2 the whole id list is one assembly call that prefetches the rows
// ahead while it scores the current one; otherwise it is a loop over the
// scalar kernel. Either way out[i] is bit-identical to q.L2(levels, c,
// ids[i]). out must be at least len(ids) long; levels of another dimension
// or an id outside [0, c.Rows) panics.
func (q *Quantizer) L2ToRows(c CodeMatrix, levels []int16, ids []int32, out []float32) {
	if len(out) < len(ids) {
		panic("quant: L2ToRows output shorter than ids")
	}
	if len(ids) == 0 {
		return
	}
	// The assembly takes raw pointers, so nothing reaches it that a slice
	// expression would have refused.
	dim := c.Dim
	if len(levels) != dim {
		panic("quant: level/code length mismatch")
	}
	checkRows(ids, c.Rows, dim, len(c.Codes))
	if cpu.AVX2 {
		l2CodeRowsAVX2(&c.Codes[0], dim, &levels[0], &ids[0], len(ids), &out[0], q.distMul, prefetchBytes)
		return
	}
	for i, id := range ids {
		out[i] = float32(l2LevelsGeneric(levels, c.Row(int(id)))) * q.distMul
	}
}

// checkRows panics unless rows rows of stride bytes fit in a slab of size
// bytes and every id names one of them — the contract of the assembly
// gather, which reads exactly the rows ids names.
func checkRows(ids []int32, rows, stride, size int) {
	if stride <= 0 || uint(rows) > uint(size/stride) {
		panic(fmt.Sprintf("quant: code matrix of %d rows x %d bytes does not fit its %d bytes", rows, stride, size))
	}
	// One branch-free pass finds the largest id (a negative one wraps to
	// above any row count), and only a failing list is searched again.
	var hi uint32
	for _, id := range ids {
		hi = max(hi, uint32(id))
	}
	if uint(hi) < uint(rows) {
		return
	}
	for _, id := range ids {
		if uint(id) >= uint(rows) {
			panic(fmt.Sprintf("quant: row id %d out of range [0,%d)", id, rows))
		}
	}
}

// prefetchBytes bounds how far the assembly gather prefetches ahead of the
// row it is scoring, as bytes of rows in flight: the value
// vecmath.L2ToRows uses, so a hop's 10-50 ids are all in flight at once and
// a filter scan's hundreds are fetched a window ahead.
const prefetchBytes = 8 << 10

// L2ToRowsCount is the Counter-aware twin of L2ToRows: it computes the same
// distances and records len(ids) distance evaluations in one counter
// update, the same convention the IVFPQ baseline uses for its quantized
// (ADC) scans in the paper's Figure 8 accounting. A nil counter is valid
// and counts nothing.
func (q *Quantizer) L2ToRowsCount(counter *vecmath.Counter, c CodeMatrix, levels []int16, ids []int32, out []float32) {
	counter.AddN(uint64(len(ids)))
	q.L2ToRows(c, levels, ids, out)
}
