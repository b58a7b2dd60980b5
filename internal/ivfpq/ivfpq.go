// Package ivfpq implements an inverted-file index with product quantization
// (Jégou et al., PAMI 2011), standing in for Faiss's IVFPQ — the paper's
// non-graph comparator in Figure 7, Figure 8 and the Taobao experiments
// (where a well-optimized IVFPQ is the production baseline NSG displaces).
//
// Indexing: a coarse k-means quantizer partitions the base set into nlist
// cells; residuals (vector minus cell centroid) are product-quantized with
// m sub-quantizers of 256 centroids each. Search: visit the nprobe nearest
// cells, score candidates with asymmetric distance computation (ADC) lookup
// tables, then exactly re-rank the best rerank candidates.
package ivfpq

import (
	"fmt"
	"math/rand"

	"repro/internal/vecmath"
)

// Params configures Build.
type Params struct {
	NList       int // coarse cells
	M           int // PQ sub-quantizers; Dim must be divisible by M
	KSub        int // centroids per sub-quantizer (≤256 to fit a byte code)
	TrainIters  int
	TrainSample int // vectors sampled for codebook training
	Seed        int64
}

// DefaultParams returns settings matched to test-scale data; dim must be
// divisible by 8.
func DefaultParams() Params {
	return Params{NList: 64, M: 8, KSub: 256, TrainIters: 10, TrainSample: 4096, Seed: 1}
}

// Index is a built IVFPQ structure.
type Index struct {
	Base vecmath.Matrix // retained for exact re-ranking

	coarse vecmath.Matrix // nlist × dim
	lists  [][]int32      // inverted lists of base ids per cell

	m        int
	dsub     int // dim / m
	ksub     int
	codebook []vecmath.Matrix // m sub-codebooks, each ksub × dsub
	codes    [][]uint8        // n × m PQ codes of residuals
	cellOf   []int32          // coarse assignment per base vector
}

// Build trains the quantizers and encodes the base set.
func Build(base vecmath.Matrix, p Params) (*Index, error) {
	n := base.Rows
	if n == 0 {
		return nil, fmt.Errorf("ivfpq: empty base set")
	}
	if p.NList <= 0 {
		p.NList = 64
	}
	if p.M <= 0 {
		p.M = 8
	}
	if base.Dim%p.M != 0 {
		return nil, fmt.Errorf("ivfpq: dim %d not divisible by M=%d", base.Dim, p.M)
	}
	if p.KSub <= 0 || p.KSub > 256 {
		p.KSub = 256
	}
	if p.TrainIters <= 0 {
		p.TrainIters = 10
	}
	if p.TrainSample <= 0 {
		p.TrainSample = 4096
	}
	if p.NList > n {
		p.NList = n
	}
	rng := rand.New(rand.NewSource(p.Seed))

	// Training sample.
	sampleN := p.TrainSample
	if sampleN > n {
		sampleN = n
	}
	perm := rng.Perm(n)[:sampleN]
	train := vecmath.NewMatrix(sampleN, base.Dim)
	for i, pi := range perm {
		copy(train.Row(i), base.Row(pi))
	}

	idx := &Index{
		Base: base,
		m:    p.M,
		dsub: base.Dim / p.M,
		ksub: p.KSub,
	}
	idx.coarse = kmeans(train, p.NList, p.TrainIters, rng)

	// Residuals of the training sample for PQ codebook training.
	resTrain := vecmath.NewMatrix(sampleN, base.Dim)
	for i := 0; i < sampleN; i++ {
		v := train.Row(i)
		c := idx.nearestCell(v)
		cen := idx.coarse.Row(int(c))
		row := resTrain.Row(i)
		for j := range row {
			row[j] = v[j] - cen[j]
		}
	}
	ks := p.KSub
	if ks > sampleN {
		ks = sampleN
	}
	for sub := 0; sub < p.M; sub++ {
		subData := vecmath.NewMatrix(sampleN, idx.dsub)
		for i := 0; i < sampleN; i++ {
			copy(subData.Row(i), resTrain.Row(i)[sub*idx.dsub:(sub+1)*idx.dsub])
		}
		idx.codebook = append(idx.codebook, kmeans(subData, ks, p.TrainIters, rng))
	}
	idx.ksub = idx.codebook[0].Rows

	// Encode the base set.
	idx.lists = make([][]int32, idx.coarse.Rows)
	idx.codes = make([][]uint8, n)
	idx.cellOf = make([]int32, n)
	for i := 0; i < n; i++ {
		v := base.Row(i)
		c := idx.nearestCell(v)
		idx.cellOf[i] = c
		idx.lists[c] = append(idx.lists[c], int32(i))
		cen := idx.coarse.Row(int(c))
		code := make([]uint8, p.M)
		for sub := 0; sub < p.M; sub++ {
			code[sub] = idx.encodeSub(v, cen, sub)
		}
		idx.codes[i] = code
	}
	return idx, nil
}

func (x *Index) nearestCell(v []float32) int32 {
	best, bestD := 0, float32(0)
	for c := 0; c < x.coarse.Rows; c++ {
		d := vecmath.L2(v, x.coarse.Row(c))
		if c == 0 || d < bestD {
			best, bestD = c, d
		}
	}
	return int32(best)
}

func (x *Index) encodeSub(v, cen []float32, sub int) uint8 {
	lo := sub * x.dsub
	res := make([]float32, x.dsub)
	for j := 0; j < x.dsub; j++ {
		res[j] = v[lo+j] - cen[lo+j]
	}
	best, bestD := 0, float32(0)
	cb := x.codebook[sub]
	for k := 0; k < cb.Rows; k++ {
		d := vecmath.L2(res, cb.Row(k))
		if k == 0 || d < bestD {
			best, bestD = k, d
		}
	}
	return uint8(best)
}

// Search visits the nprobe nearest coarse cells, scores their members with
// ADC tables and exactly re-ranks the rerank best. counter records the
// coarse-quantizer distances, one evaluation per ADC-scored code, and the
// exact re-ranking distances — the accounting the paper's Figure 8 uses for
// Faiss (every candidate whose distance is estimated counts once).
func (x *Index) Search(q []float32, k, nprobe, rerank int, counter *vecmath.Counter) []vecmath.Neighbor {
	return x.SearchCells(q, k, 0, max(nprobe, 1), rerank, counter)
}

// SearchCells is Search over the cells ranked first..last-1 by distance to
// q (rank 0 is the nearest), so workers given disjoint ranges split one
// search's probes without repeating any; merging their results keeps every
// candidate the one search would rerank.
func (x *Index) SearchCells(q []float32, k, first, last, rerank int, counter *vecmath.Counter) []vecmath.Neighbor {
	last = min(last, x.coarse.Rows)
	if rerank < k {
		rerank = k
	}

	// Rank cells by distance to q.
	cells := make([]vecmath.Neighbor, x.coarse.Rows)
	for c := 0; c < x.coarse.Rows; c++ {
		cells[c] = vecmath.Neighbor{ID: int32(c), Dist: counter.L2(q, x.coarse.Row(c))}
	}
	vecmath.SortNeighbors(cells)

	// ADC scoring over the probed cells.
	approx := vecmath.NewTopK(rerank)
	lut := make([]float32, x.m*x.ksub)
	for pi := first; pi < last; pi++ {
		c := cells[pi].ID
		cen := x.coarse.Row(int(c))
		// Build the lookup table for this cell: distance from the query
		// residual's sub-vector to every sub-centroid.
		for sub := 0; sub < x.m; sub++ {
			lo := sub * x.dsub
			qres := make([]float32, x.dsub)
			for j := 0; j < x.dsub; j++ {
				qres[j] = q[lo+j] - cen[lo+j]
			}
			cb := x.codebook[sub]
			for kk := 0; kk < x.ksub; kk++ {
				lut[sub*x.ksub+kk] = vecmath.L2(qres, cb.Row(kk))
			}
		}
		counter.AddN(uint64(len(x.lists[c])))
		for _, id := range x.lists[c] {
			code := x.codes[id]
			var d float32
			for sub := 0; sub < x.m; sub++ {
				d += lut[sub*x.ksub+int(code[sub])]
			}
			approx.Push(id, d)
		}
	}

	// Exact re-rank.
	cand := approx.Result()
	exact := vecmath.NewTopK(k)
	for _, c := range cand {
		exact.Push(c.ID, counter.L2(q, x.Base.Row(int(c.ID))))
	}
	return exact.Result()
}

// IndexBytes reports the compressed footprint: m bytes per vector of codes,
// 4 bytes per id in the inverted lists, plus codebooks and coarse centroids.
// This is why IVFPQ's memory advantage over graph indexes is structural.
func (x *Index) IndexBytes() int64 {
	var total int64
	total += int64(len(x.codes)) * int64(x.m) // codes
	for _, l := range x.lists {
		total += int64(len(l)) * 4
	}
	total += int64(x.coarse.Rows) * int64(x.coarse.Dim) * 4
	for _, cb := range x.codebook {
		total += int64(cb.Rows) * int64(cb.Dim) * 4
	}
	return total
}
