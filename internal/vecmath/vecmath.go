// Package vecmath provides the low-level float32 vector primitives used by
// every index in this repository: squared Euclidean distance, batch
// distances, centroids, norms and small top-k helpers.
//
// The paper's reference implementation uses SIMD intrinsics, and so do the
// two entry points everything hot goes through here: on amd64 with AVX2
// (internal/cpu probes it; NSG_NO_AVX2 turns it off) L2 and L2ToRows run
// hand-written assembly, the latter scoring its id list four rows at a
// time while it prefetches the rows further down the list. Everywhere else
// they run l2Generic, an 8-accumulator scalar loop.
//
// The two give the same bits, not merely close values, so search results,
// persisted distances and every byte-identity suite are independent of the
// dispatch. That is by construction on both sides: the assembly keeps one
// 8-lane accumulator per row (lane j is the scalar loop's s_j), uses no
// fused multiply-add and sums each row's lanes in the scalar expression's
// order, (((s0+s1)+(s2+s3))+(s4+s5))+(s6+s7) — for four rows at once a
// transpose of their pair sums followed by the same three adds lane-wise;
// the scalar loop writes float32(d*d), the explicit conversion that the Go
// spec says forbids fusing the product into the add, so arm64 and
// GOAMD64=v3 builds, which fuse wherever they may, round twice as the
// assembly does. The one thing left unspecified is which payload survives
// when several NaNs meet.
package vecmath

import (
	"fmt"
	"math"

	"repro/internal/cpu"
)

// Finite reports whether every coordinate of v is finite: no NaN, no ±Inf.
func Finite(v []float32) bool {
	for _, x := range v {
		if math.Float32bits(x)&0x7f800000 == 0x7f800000 {
			return false
		}
	}
	return true
}

// L2 returns the squared Euclidean distance between a and b.
//
// The squared distance is used everywhere in this repository: it is monotone
// in the true distance, so nearest-neighbor order is unchanged and the sqrt
// is skipped. Panics if the slices have different lengths.
func L2(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: dimension mismatch %d != %d", len(a), len(b)))
	}
	if cpu.AVX2 && len(a) >= 8 {
		n := len(a) &^ 7
		s := l2AVX2(&a[0], &b[0], n)
		for i := n; i < len(a); i++ {
			d := a[i] - b[i]
			s += float32(d * d)
		}
		return s
	}
	return l2Generic(a, b)
}

// l2Generic is the portable scalar kernel and the definition of L2's bits:
// eight accumulators, lane j taking elements j, j+8, j+16, ..., summed left
// to right, then the tail in index order. The float32(d * d) conversions
// are not noise: the Go spec lets a compiler fuse x*y + z into one rounding
// unless the product is explicitly converted, and arm64 and GOAMD64=v3
// builds do fuse.
func l2Generic(a, b []float32) float32 {
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	i := 0
	for ; i+8 <= len(a); i += 8 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		d4 := a[i+4] - b[i+4]
		d5 := a[i+5] - b[i+5]
		d6 := a[i+6] - b[i+6]
		d7 := a[i+7] - b[i+7]
		s0 += float32(d0 * d0)
		s1 += float32(d1 * d1)
		s2 += float32(d2 * d2)
		s3 += float32(d3 * d3)
		s4 += float32(d4 * d4)
		s5 += float32(d5 * d5)
		s6 += float32(d6 * d6)
		s7 += float32(d7 * d7)
	}
	s := (s0 + s1) + (s2 + s3) + (s4 + s5) + (s6 + s7)
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += float32(d * d)
	}
	return s
}

// Dot returns the inner product of a and b. Panics on dimension mismatch.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vecmath: dimension mismatch %d != %d", len(a), len(b)))
	}
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// Norm returns the Euclidean norm of a.
func Norm(a []float32) float32 {
	return float32(math.Sqrt(float64(Dot(a, a))))
}

// Normalize scales a in place to unit Euclidean norm. Zero vectors are left
// unchanged.
func Normalize(a []float32) {
	n := Norm(a)
	if n == 0 {
		return
	}
	inv := 1 / n
	for i := range a {
		a[i] *= inv
	}
}

// Centroid returns the arithmetic mean of the rows of a Matrix. It
// accumulates in float64 so large datasets do not lose precision. Panics if
// the matrix has no rows.
func Centroid(m Matrix) []float32 {
	if m.Rows == 0 {
		panic("vecmath: centroid of empty matrix")
	}
	acc := make([]float64, m.Dim)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			acc[j] += float64(v)
		}
	}
	out := make([]float32, m.Dim)
	inv := 1 / float64(m.Rows)
	for j, v := range acc {
		out[j] = float32(v * inv)
	}
	return out
}

// Matrix is a dense row-major collection of vectors sharing one backing
// slice, giving the contiguous memory layout that graph traversal relies on.
type Matrix struct {
	Data []float32 // len == Rows*Dim
	Rows int
	Dim  int
}

// NewMatrix allocates a zeroed rows×dim matrix.
func NewMatrix(rows, dim int) Matrix {
	if rows < 0 || dim <= 0 {
		panic(fmt.Sprintf("vecmath: invalid matrix shape %dx%d", rows, dim))
	}
	return Matrix{Data: make([]float32, rows*dim), Rows: rows, Dim: dim}
}

// MatrixFromSlices copies vecs into a contiguous Matrix. All vectors must
// share the same dimension.
func MatrixFromSlices(vecs [][]float32) Matrix {
	if len(vecs) == 0 {
		panic("vecmath: empty vector set")
	}
	dim := len(vecs[0])
	m := NewMatrix(len(vecs), dim)
	for i, v := range vecs {
		if len(v) != dim {
			panic(fmt.Sprintf("vecmath: ragged vectors: row %d has dim %d, want %d", i, len(v), dim))
		}
		copy(m.Row(i), v)
	}
	return m
}

// Row returns the i-th vector as a subslice of the backing array. The caller
// must not resize it; writes are visible in the matrix.
func (m Matrix) Row(i int) []float32 {
	return m.Data[i*m.Dim : (i+1)*m.Dim : (i+1)*m.Dim]
}

// Slice returns a view of rows [lo,hi) sharing the same backing array.
func (m Matrix) Slice(lo, hi int) Matrix {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("vecmath: slice [%d,%d) out of range for %d rows", lo, hi, m.Rows))
	}
	return Matrix{Data: m.Data[lo*m.Dim : hi*m.Dim], Rows: hi - lo, Dim: m.Dim}
}

// Clone returns a deep copy of the matrix.
func (m Matrix) Clone() Matrix {
	c := NewMatrix(m.Rows, m.Dim)
	copy(c.Data, m.Data)
	return c
}

// Counter counts distance computations. The paper's Figure 8 compares
// methods by the number of distance evaluations needed to reach a target
// precision; all searchers route their distance calls through a Counter so
// that figure can be reproduced exactly. A nil *Counter is valid and counts
// nothing.
type Counter struct {
	n uint64
}

// L2 computes the squared distance and increments the counter.
func (c *Counter) L2(a, b []float32) float32 {
	if c != nil {
		c.n++
	}
	return L2(a, b)
}

// AddN records n distance evaluations that happened outside the L2 helper —
// quantized (ADC) candidate scoring in IVFPQ counts each scanned code as one
// evaluation, matching how the paper's Figure 8 counts "distance
// calculations" for Faiss.
func (c *Counter) AddN(n uint64) {
	if c != nil {
		c.n += n
	}
}

// Count returns the number of distance computations recorded so far.
func (c *Counter) Count() uint64 {
	if c == nil {
		return 0
	}
	return c.n
}

// Reset zeroes the counter.
func (c *Counter) Reset() {
	if c != nil {
		c.n = 0
	}
}
