package nsg

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/vecmath"
)

// Metric selects the similarity the index answers queries under. The NSG
// graph itself is always built in Euclidean space (the paper's setting);
// Cosine and InnerProduct are supported through standard reductions applied
// at indexing and query time:
//
//   - Cosine: vectors are L2-normalized, making cosine similarity a
//     monotone function of Euclidean distance.
//   - InnerProduct (MIPS): vectors are augmented with one extra coordinate
//     sqrt(maxNorm² − |x|²) and queries with 0, after which the Euclidean
//     nearest neighbor of the augmented query is the maximum-inner-product
//     vector (Bachrach et al.'s reduction). This is the transformation used
//     in production e-commerce retrieval — the paper's Taobao scenario
//     serves exactly such embeddings.
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
	switch m {
	case L2:
		return "l2"
	case Cosine:
		return "cosine"
	case InnerProduct:
		return "inner-product"
	default:
		return fmt.Sprintf("metric(%d)", int(m))
	}
}

// MetricIndex wraps an Index to answer Cosine or InnerProduct queries via
// the reductions above. Construct with BuildMetric.
type MetricIndex struct {
	idx     *Index
	metric  Metric
	dim     int     // original (pre-augmentation) dimension
	maxNorm float32 // MIPS only: augmentation radius
	// originals holds the untransformed vectors so scores can be reported
	// in the caller's metric.
	originals vecmath.Matrix
}

// BuildMetric indexes vectors under the given metric. For L2 it is
// equivalent to Build.
func BuildMetric(vectors [][]float32, metric Metric, opts Options) (*MetricIndex, error) {
	if len(vectors) < 2 {
		return nil, fmt.Errorf("nsg: need at least 2 vectors, have %d", len(vectors))
	}
	dim := len(vectors[0])
	originals := vecmath.MatrixFromSlices(vectors)

	var transformed vecmath.Matrix
	var maxNorm float32
	switch metric {
	case L2:
		transformed = originals.Clone()
	case Cosine:
		transformed = originals.Clone()
		for i := 0; i < transformed.Rows; i++ {
			vecmath.Normalize(transformed.Row(i))
		}
	case InnerProduct:
		for i := 0; i < originals.Rows; i++ {
			if n := vecmath.Norm(originals.Row(i)); n > maxNorm {
				maxNorm = n
			}
		}
		if maxNorm == 0 {
			maxNorm = 1
		}
		transformed = vecmath.NewMatrix(originals.Rows, dim+1)
		for i := 0; i < originals.Rows; i++ {
			row := originals.Row(i)
			out := transformed.Row(i)
			copy(out, row)
			norm2 := float64(vecmath.Dot(row, row))
			aug := float64(maxNorm)*float64(maxNorm) - norm2
			if aug < 0 {
				aug = 0
			}
			out[dim] = float32(math.Sqrt(aug))
		}
	default:
		return nil, fmt.Errorf("nsg: unknown metric %v", metric)
	}

	idx, err := BuildFromFlat(transformed.Data, transformed.Dim, opts)
	if err != nil {
		return nil, err
	}
	return &MetricIndex{idx: idx, metric: metric, dim: dim, maxNorm: maxNorm, originals: originals}, nil
}

// Metric returns the metric the index answers under.
func (x *MetricIndex) Metric() Metric { return x.metric }

// Len returns the number of indexed vectors.
func (x *MetricIndex) Len() int { return x.originals.Rows }

// Dim returns the original vector dimension.
func (x *MetricIndex) Dim() int { return x.dim }

// Search returns the ids and scores of the k best matches. For L2 the score
// is squared distance (ascending order); for Cosine it is cosine similarity
// and for InnerProduct the dot product (both descending order — best first).
func (x *MetricIndex) Search(query []float32, k int) ([]int32, []float32) {
	return x.SearchWithPool(query, k, x.idx.opts.SearchL)
}

// SearchWithPool is Search with an explicit pool size.
func (x *MetricIndex) SearchWithPool(query []float32, k, l int) ([]int32, []float32) {
	ctx := x.idx.getCtx()
	ids, scores := x.searchWithPoolCtx(ctx, query, k, l)
	x.idx.putCtx(ctx)
	return ids, scores
}

// searchWithPoolCtx applies the metric's query transform, runs the ctx
// search on the underlying L2 index, and re-scores results in the caller's
// metric. SearchBatch threads one context per worker through here.
func (x *MetricIndex) searchWithPoolCtx(ctx *core.SearchContext, query []float32, k, l int) ([]int32, []float32) {
	if len(query) != x.dim {
		panic(fmt.Sprintf("nsg: query dim %d != index dim %d", len(query), x.dim))
	}
	ids, _ := x.idx.searchIntoFresh(ctx, x.transformQuery(query), k, l, nil)
	scores := make([]float32, len(ids))
	for i, id := range ids {
		scores[i] = x.score(query, id)
	}
	return ids, scores
}

// transformQuery maps a caller query into the underlying L2 index's
// coordinate space: identity for L2 (no copy), normalized copy for Cosine,
// zero-augmented copy for InnerProduct (the augmented coordinate is 0, so
// MIPS order is preserved).
func (x *MetricIndex) transformQuery(query []float32) []float32 {
	switch x.metric {
	case Cosine:
		q := append([]float32{}, query...)
		vecmath.Normalize(q)
		return q
	case InnerProduct:
		q := make([]float32, x.dim+1)
		copy(q, query)
		return q
	default:
		return query
	}
}

// score reports the match quality in the caller's metric using the original
// (untransformed) vectors.
func (x *MetricIndex) score(query []float32, id int32) float32 {
	row := x.originals.Row(int(id))
	switch x.metric {
	case Cosine:
		qn, rn := vecmath.Norm(query), vecmath.Norm(row)
		if qn == 0 || rn == 0 {
			return 0
		}
		return vecmath.Dot(query, row) / (qn * rn)
	case InnerProduct:
		return vecmath.Dot(query, row)
	default:
		return vecmath.L2(query, row)
	}
}
