package nsg

import (
	"fmt"
	"math"

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
// the reductions above. Construct with BuildMetric. It keeps no copy of the
// vectors: scores are computed from the index's own rows.
type MetricIndex struct {
	idx     *Index
	metric  Metric
	dim     int     // original (pre-augmentation) dimension
	maxNorm float32 // MIPS only: augmentation radius
}

// BuildMetric indexes vectors under the given metric. For L2 it is
// equivalent to Build.
func BuildMetric(vectors [][]float32, metric Metric, opts Options) (*MetricIndex, error) {
	if len(vectors) < 2 {
		return nil, fmt.Errorf("nsg: need at least 2 vectors, have %d", len(vectors))
	}
	dim := len(vectors[0])
	base := vecmath.MatrixFromSlices(vectors)
	var maxNorm float32
	switch metric {
	case L2:
	case Cosine:
		for i := 0; i < base.Rows; i++ {
			vecmath.Normalize(base.Row(i))
		}
	case InnerProduct:
		for i := 0; i < base.Rows; i++ {
			if n := vecmath.Norm(base.Row(i)); n > maxNorm {
				maxNorm = n
			}
		}
		if maxNorm == 0 {
			maxNorm = 1
		}
		aug := vecmath.NewMatrix(base.Rows, dim+1)
		for i := 0; i < base.Rows; i++ {
			row := base.Row(i)
			out := aug.Row(i)
			copy(out, row)
			norm2 := float64(vecmath.Dot(row, row))
			extra := float64(maxNorm)*float64(maxNorm) - norm2
			if extra < 0 {
				extra = 0
			}
			out[dim] = float32(math.Sqrt(extra))
		}
		base = aug
	default:
		return nil, fmt.Errorf("nsg: unknown metric %v", metric)
	}

	idx, err := BuildFromFlat(base.Data, base.Dim, opts)
	if err != nil {
		return nil, err
	}
	return &MetricIndex{idx: idx, metric: metric, dim: dim, maxNorm: maxNorm}, nil
}

// Metric returns the metric the index answers under.
func (x *MetricIndex) Metric() Metric { return x.metric }

// Len returns the number of indexed vectors.
func (x *MetricIndex) Len() int { return x.idx.Len() }

// Dim returns the original vector dimension.
func (x *MetricIndex) Dim() int { return x.dim }

// Search returns the ids and scores of the k best matches. For L2 the score
// is squared distance (ascending order); for Cosine it is cosine similarity
// and for InnerProduct the dot product (both descending order — best first).
func (x *MetricIndex) Search(query []float32, k int) ([]int32, []float32) {
	return x.SearchWithPool(query, k, x.idx.opts.SearchL)
}

// SearchWithPool is Search with an explicit pool size: the metric's query
// transform, Index.SearchWithPool, and the results re-scored in the
// caller's metric.
func (x *MetricIndex) SearchWithPool(query []float32, k, l int) ([]int32, []float32) {
	ids, _ := x.idx.SearchWithPool(x.transformQuery(query), k, l)
	return ids, x.scores(query, ids)
}

// SearchBatch answers many queries concurrently, like Index.SearchBatch but
// reporting scores in the index's metric (see Search for the score
// conventions). Panics if any query's dimension does not match the index.
func (x *MetricIndex) SearchBatch(queries [][]float32, k, l, workers int) []BatchResult {
	transformed := make([][]float32, len(queries))
	for i, q := range queries {
		transformed[i] = x.transformQuery(q)
	}
	out := x.idx.SearchBatch(transformed, k, l, workers)
	for i := range out {
		out[i].Dists = x.scores(queries[i], out[i].IDs)
	}
	return out
}

// transformQuery maps a caller query into the underlying L2 index's
// coordinate space: identity for L2 (no copy), normalized copy for Cosine,
// zero-augmented copy for InnerProduct (the augmented coordinate is 0, so
// MIPS order is preserved). A wrong-dimension query panics.
func (x *MetricIndex) transformQuery(query []float32) []float32 {
	if len(query) != x.dim {
		panic(fmt.Sprintf("nsg: query dim %d != index dim %d", len(query), x.dim))
	}
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

// scores reports the match quality of each id in the caller's metric from
// the index's rows: an L2 row is the original vector and an InnerProduct
// row starts with it, so those scores are exact; a Cosine row is the unit
// vector, so the cosine is its dot product with the query over |query|.
func (x *MetricIndex) scores(query []float32, ids []int32) []float32 {
	out := make([]float32, len(ids))
	qn := vecmath.Norm(query)
	for i, id := range ids {
		row := x.idx.Vector(int(id))
		switch x.metric {
		case Cosine:
			if qn != 0 {
				out[i] = vecmath.Dot(query, row) / qn
			}
		case InnerProduct:
			out[i] = vecmath.Dot(query, row[:x.dim])
		default:
			out[i] = vecmath.L2(query, row)
		}
	}
	return out
}
