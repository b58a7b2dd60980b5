package nsg

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/vecmath"
)

// Metric selects the similarity the index answers queries under
// (Options.Metric). The graph is always built in Euclidean space (the
// paper's setting); Cosine and InnerProduct are standard reductions applied
// at the index boundary, to the rows at build and Add and to every query:
//
//   - Cosine: vectors are L2-normalized, making cosine similarity a
//     monotone function of Euclidean distance.
//   - InnerProduct (MIPS): rows gain one coordinate sqrt(R² − |x|²), R the
//     largest row norm at build, and queries a 0, so the Euclidean nearest
//     neighbor is the maximum-inner-product row (Bachrach et al.'s
//     reduction, as production e-commerce retrieval — the paper's Taobao
//     scenario — serves its embeddings).
//
// Under both, a search reports scores, the cosine or the dot product,
// largest first.
type Metric int

const (
	// L2 is squared Euclidean distance (the paper's metric). Default.
	L2 Metric = iota
	// Cosine ranks by cosine similarity (descending).
	Cosine
	// InnerProduct ranks by dot product (descending) — MIPS.
	InnerProduct
)

// String returns the metric name.
func (m Metric) String() string {
	if m.check() != nil {
		return fmt.Sprintf("metric(%d)", int(m))
	}
	return [...]string{"l2", "cosine", "inner-product"}[m]
}

// check rejects a metric other than the three above.
func (m Metric) check() error {
	if m < L2 || m > InnerProduct {
		return fmt.Errorf("nsg: unknown metric %d", int(m))
	}
	return nil
}

// ErrNormExceedsRadius is returned by Add on an InnerProduct index for a
// vector longer than the radius R (see Metric), which the reduction cannot
// rank. Nothing is added.
var ErrNormExceedsRadius = errors.New("nsg: vector norm exceeds the inner-product augmentation radius")

// radiusSlack is how far, relatively, a squared norm may pass R² and still
// count as on it: R is read back from float32 rows, with rounding error.
const radiusSlack = 1e-4

// indexSpace returns base as the index stores it: base itself under L2, a
// normalized copy under Cosine, and under InnerProduct a copy augmented
// with the coordinate that puts every row on the radius.
func (m Metric) indexSpace(base vecmath.Matrix) vecmath.Matrix {
	switch m {
	case Cosine:
		out := vecmath.Matrix{Data: slices.Clone(base.Data), Rows: base.Rows, Dim: base.Dim}
		for i := range out.Rows {
			vecmath.Normalize(out.Row(i))
		}
		return out
	case InnerProduct:
		var radius float32
		for i := range base.Rows {
			radius = max(radius, vecmath.Norm(base.Row(i)))
		}
		if radius == 0 {
			radius = 1
		}
		r2 := float64(radius) * float64(radius)
		out := vecmath.NewMatrix(base.Rows, base.Dim+1)
		for i := range base.Rows {
			augment(out.Row(i), base.Row(i), r2)
		}
		return out
	}
	return base
}

// augment writes v and its extra coordinate sqrt(r2 − |v|²) into dst.
func augment(dst, v []float32, r2 float64) {
	copy(dst, v)
	dst[len(v)] = float32(math.Sqrt(max(r2-float64(vecmath.Dot(v, v)), 0)))
}

// indexRow returns the row an Add stores for vec: vec under L2, a
// normalized copy under Cosine, and under InnerProduct a copy augmented
// onto the radius, or ErrNormExceedsRadius.
func (s *sharded) indexRow(m Metric, vec []float32) ([]float32, error) {
	switch m {
	case L2:
		return vec, nil
	case Cosine:
		return m.appendQuery(nil, vec), nil
	}
	// Every stored row lies on the radius, so the navigating rows, one per
	// shard, carry it.
	var r2 float64
	for _, nav := range s.navVec {
		r2 = max(r2, float64(vecmath.Dot(nav, nav)))
	}
	if n2 := float64(vecmath.Dot(vec, vec)); n2 > r2*(1+radiusSlack) {
		return nil, fmt.Errorf("%w: norm %g, radius %g", ErrNormExceedsRadius, math.Sqrt(n2), math.Sqrt(r2))
	}
	row := make([]float32, len(vec)+1)
	augment(row, vec, r2)
	return row, nil
}

// appendQuery appends the query's image in index space to buf: a copy
// under L2, normalized under Cosine, zero-augmented under InnerProduct (the
// augmented coordinate is 0, so MIPS order is preserved).
func (m Metric) appendQuery(buf, query []float32) []float32 {
	buf = append(buf, query...)
	switch m {
	case Cosine:
		vecmath.Normalize(buf)
	case InnerProduct:
		buf = append(buf, 0)
	}
	return buf
}

// rescore replaces the index-space distances in dists with the scores of
// ids in the caller's metric, read from the stored rows: an InnerProduct
// row starts with the caller's vector, so its score is exact; a Cosine
// row is the unit vector, so the cosine is its dot product with the query
// over |query|.
func (x *Index) rescore(query []float32, ids []int32, dists []float32) {
	qn := vecmath.Norm(query)
	for i, id := range ids {
		row := x.row(int(id))
		switch {
		case x.opts.Metric == InnerProduct:
			dists[i] = vecmath.Dot(query, row[:len(query)])
		case qn != 0:
			dists[i] = vecmath.Dot(query, row) / qn
		default:
			dists[i] = 0
		}
	}
}
