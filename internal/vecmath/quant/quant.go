// Package quant implements SQ8 scalar quantization for the search hot path:
// every base vector is compressed to one byte per dimension, shrinking the
// bytes a graph expansion gathers by 4x. Graph traversal at serving scale is
// memory-bandwidth-bound (the paper serves 1e8-scale E-commerce vectors on
// commodity hardware; Section 6 discusses the hardware ceiling), so the code
// matrix is the factor-level lever once the search loop itself is
// allocation-free.
//
// The scheme is asymmetric: base vectors are encoded once into uint8 codes
// on a per-dimension min/max grid, while the query is never truncated to a
// code — at search time it is prepared into int32 grid levels (allowed to
// sit outside the trained [0,255] range), and distances accumulate in pure
// int32 arithmetic:
//
//	dist²(q, x) ≈ scale² · Σ_d (level_d(q) − code_d(x))²
//
// The grid offsets are trained per dimension (Min[d]), but the grid step
// ("scale") is shared across dimensions — that is what keeps the inner loop
// free of per-dimension float multiplies and lets one int32 accumulator
// chain run over the whole vector. Dimensions with narrower ranges simply
// use fewer of the 256 levels. The residual quantization error is absorbed
// by the caller's exact rerank pass (see core.NSG's quantized search),
// which recomputes float32 distances for the final candidate pool.
package quant

import (
	"fmt"

	"repro/internal/vecmath"
)

// queryPad is how far outside the trained [0,255] range a prepared query
// level may sit before clamping. Padding keeps out-of-distribution queries
// ordered correctly near the trained region while bounding the worst-case
// per-dimension difference (255+queryPad) so the int32 accumulator cannot
// overflow for any supported dimension.
const queryPad = 128

// MaxDim is the largest vector dimension the int32 distance accumulation
// supports: (255+queryPad)² per dimension summed over MaxDim dimensions
// stays below 2³¹−1.
const MaxDim = (1<<31 - 1) / ((255 + queryPad) * (255 + queryPad))

// Quantizer holds a trained SQ8 grid: per-dimension bounds and the shared
// step derived from the widest dimension. The zero value is not usable;
// obtain one from Train or FromBounds.
type Quantizer struct {
	Min []float32 // per-dimension lower bound (grid offset)
	Max []float32 // per-dimension upper bound (training only; step derives from the widest span)

	scale    float32 // shared grid step: widest span / 255
	invScale float32
	distMul  float32 // scale², folded once into every distance
}

// Train fits the grid to the rows of m: per-dimension min/max in one pass,
// then a shared step sized so the widest dimension spans all 256 levels.
// Training is order-invariant, so a quantizer trained on the full dataset
// can be shared by every shard of a partitioned index.
func Train(m vecmath.Matrix) Quantizer {
	if m.Rows == 0 || m.Dim == 0 {
		panic("quant: cannot train on an empty matrix")
	}
	if m.Dim > MaxDim {
		panic(fmt.Sprintf("quant: dimension %d exceeds the int32 accumulation limit %d", m.Dim, MaxDim))
	}
	q := Quantizer{Min: make([]float32, m.Dim), Max: make([]float32, m.Dim)}
	copy(q.Min, m.Row(0))
	copy(q.Max, m.Row(0))
	for i := 1; i < m.Rows; i++ {
		row := m.Row(i)
		for d, v := range row {
			if v < q.Min[d] {
				q.Min[d] = v
			}
			if v > q.Max[d] {
				q.Max[d] = v
			}
		}
	}
	q.deriveScale()
	return q
}

// FromBounds reconstructs a quantizer from persisted per-dimension bounds.
// Because the scale is re-derived by the same deriveScale that training
// uses, the result is bit-identical to the originally trained quantizer —
// the property the mapped serving path relies on for heap/mapped parity.
func FromBounds(min, max []float32) Quantizer {
	if len(min) != len(max) || len(min) == 0 {
		panic(fmt.Sprintf("quant: bounds lengths %d/%d invalid", len(min), len(max)))
	}
	q := Quantizer{Min: min, Max: max}
	q.deriveScale()
	return q
}

// deriveScale recomputes the shared step from the stored bounds; it is the
// one place the scale is defined, so a quantizer reconstructed from
// persisted bounds is bit-identical to the trained original.
func (q *Quantizer) deriveScale() {
	var width float32
	for d := range q.Min {
		if w := q.Max[d] - q.Min[d]; w > width {
			width = w
		}
	}
	if width <= 0 {
		// Degenerate training set (all rows identical): any step works
		// because every code and level collapses to zero.
		width = 1
	}
	q.scale = width / 255
	q.invScale = 1 / q.scale
	q.distMul = q.scale * q.scale
}

// Dim returns the trained dimensionality.
func (q *Quantizer) Dim() int { return len(q.Min) }

// Scale returns the shared grid step.
func (q *Quantizer) Scale() float32 { return q.scale }

// EncodeInto quantizes v onto the grid, writing one code byte per dimension
// into dst. dst must have length q.Dim().
func (q *Quantizer) EncodeInto(dst []uint8, v []float32) {
	if len(v) != len(q.Min) || len(dst) != len(q.Min) {
		panic(fmt.Sprintf("quant: encode dim mismatch: vec %d, dst %d, quantizer %d", len(v), len(dst), len(q.Min)))
	}
	for d, x := range v {
		// Clamp in float space before converting: a coordinate far outside
		// the trained range (or NaN) would overflow the int32 conversion
		// and land on the wrong end of the grid otherwise. The NaN and -Inf
		// cases fall through to code 0.
		f := (x - q.Min[d]) * q.invScale
		var lv uint8
		switch {
		case f >= 255:
			lv = 255
		case f > 0:
			lv = uint8(int32(f + 0.5))
		}
		dst[d] = lv
	}
}

// Encode quantizes every row of m into a fresh code matrix.
func (q *Quantizer) Encode(m vecmath.Matrix) CodeMatrix {
	c := NewCodeMatrix(m.Rows, m.Dim)
	for i := 0; i < m.Rows; i++ {
		q.EncodeInto(c.Row(i), m.Row(i))
	}
	return c
}

// AppendEncoded grows c by one encoded row — the incremental-insert hook.
func (q *Quantizer) AppendEncoded(c *CodeMatrix, v []float32) {
	c.Codes = append(c.Codes, make([]uint8, c.Dim)...)
	c.Rows++
	q.EncodeInto(c.Row(c.Rows-1), v)
}

// PrepareInto converts a query into grid levels for the asymmetric kernels,
// appending q.Dim() int16 levels to dst (pass a reused buffer truncated to
// [:0]). Levels are rounded like codes but clamped to [−queryPad,
// 255+queryPad] instead of [0,255]: the query keeps sub-range positions
// beyond the trained bounds, which preserves candidate ordering for
// slightly out-of-distribution queries without risking accumulator
// overflow. The int16 representation is what lets the AVX2 kernel process
// 16 dimensions per packed subtract.
func (q *Quantizer) PrepareInto(dst []int16, query []float32) []int16 {
	if len(query) != len(q.Min) {
		panic(fmt.Sprintf("quant: query dim %d != quantizer dim %d", len(query), len(q.Min)))
	}
	for d, x := range query {
		// Clamped in float space, like EncodeInto, so coordinates far
		// outside the trained range (or NaN, which takes the default
		// branch) cannot overflow the int32 conversion and flip ends.
		f := (x - q.Min[d]) * q.invScale
		var lv int32
		switch {
		case f >= 255+queryPad:
			lv = 255 + queryPad
		case f >= 0:
			lv = int32(f + 0.5)
		case f > -queryPad:
			lv = -int32(-f + 0.5)
		default:
			lv = -queryPad
		}
		dst = append(dst, int16(lv))
	}
	return dst
}

// CodeMatrix is the dense row-major uint8 twin of vecmath.Matrix: one code
// byte per dimension, fixed stride Dim, all rows sharing one backing slice
// so gathered rows stay contiguous.
type CodeMatrix struct {
	Codes []uint8 // len == Rows*Dim
	Rows  int
	Dim   int
}

// NewCodeMatrix allocates a zeroed rows×dim code matrix.
func NewCodeMatrix(rows, dim int) CodeMatrix {
	if rows < 0 || dim <= 0 {
		panic(fmt.Sprintf("quant: invalid code matrix shape %dx%d", rows, dim))
	}
	return CodeMatrix{Codes: make([]uint8, rows*dim), Rows: rows, Dim: dim}
}

// Row returns the i-th code row as a subslice of the backing array.
func (c CodeMatrix) Row(i int) []uint8 {
	return c.Codes[i*c.Dim : (i+1)*c.Dim : (i+1)*c.Dim]
}

// Bytes returns the storage footprint of the codes.
func (c CodeMatrix) Bytes() int64 { return int64(len(c.Codes)) }
