package nsg

import (
	"repro/internal/core"
	"repro/internal/distsearch"
	"repro/internal/vecmath"
)

// init attaches a built or reopened index, handing its shard
// maintainers the insert parameters of opts.
func (x *Index) init(s *distsearch.Sharded, opts Options) {
	x.s, x.opts = s, opts
	s.SetLiveOptions(LiveOptions{}.internal(x.insertParams()))
}

// insertParams is what the maintainers insert with: the build's degree cap
// and pool.
func (x *Index) insertParams() core.InsertParams {
	return core.InsertParams{M: x.opts.MaxDegree, L: x.opts.BuildL}
}

// params are the build parameters of a shards-shard index under opts,
// shard s seeded with opts.Seed + s.
func params(opts Options, shards int) distsearch.Params {
	return distsearch.Params{
		Shards:       shards,
		KNNK:         opts.GraphK,
		Build:        core.BuildParams{L: opts.BuildL, M: opts.MaxDegree, Seed: opts.Seed},
		UseNNDescent: !opts.ExactKNN,
		Quantize:     opts.Quantize == QuantSQ8,
		Seed:         opts.Seed,
	}
}

// BuildStats returns the timing breakdown recorded when the index was
// built, or, after a Compact that dropped points, of that Compact's
// rebuild. Phases are summed over the shards, and Total is the wall time.
// Loaded and mapped indexes report a zero value.
func (x *Index) BuildStats() BuildStats { return x.s.BuildStats() }

// Len returns the number of indexed vectors, pending ones included. Safe
// to call concurrently with Add.
func (x *Index) Len() int { return x.s.Len() }

// Dim returns the vector dimension.
func (x *Index) Dim() int { return x.s.Dim() }

// Vector returns the stored vector with the given id, or nil for an id
// outside [0, Len()). The returned slice aliases the index's storage — on
// an index opened with Load or OpenMapped, the file mapping, which Close
// and Compact release — so do not modify it or keep it past those calls.
// Safe to call concurrently with Add.
func (x *Index) Vector(id int) []float32 {
	if id < 0 || id >= x.Len() {
		return nil
	}
	return x.s.VectorByID(id)
}

// Quantized reports whether the index serves through a quantized search
// path (built with Options.Quantize or loaded from a quantized file).
func (x *Index) Quantized() bool { return x.s.Quantized() }

// QuantMode returns the index's compressed serving mode (QuantNone when it
// serves full float32 vectors; all shards share one quantization state).
func (x *Index) QuantMode() QuantMode { return quantModeOf(x.s.Quantized()) }

// Close flushes pending Adds, so no point is lost, and stops the
// maintainer goroutines. A one-shard index runs no other goroutine: a
// built one stays usable after Close (a later Add starts its maintainer
// again), while a reopened one releases its file mapping and must not be
// used afterwards. An index of more than one shard also releases its shard
// workers and must not be used after Close; long-lived serving processes
// never need it, but code that builds and discards many indexes in one
// process should call it. Do not call while other goroutines are still
// using the index.
func (x *Index) Close() { x.s.Close() }

type neighborBuf struct{ ns []vecmath.Neighbor }

func (x *Index) getBuf() *neighborBuf {
	if b, _ := x.bufs.Get().(*neighborBuf); b != nil {
		return b
	}
	return &neighborBuf{}
}

func (x *Index) putBuf(b *neighborBuf) { x.bufs.Put(b) }

// Search returns the ids and squared L2 distances of the k approximate
// nearest neighbors of query, using the index's default search pool size.
func (x *Index) Search(query []float32, k int) ([]int32, []float32) {
	return x.SearchWithPool(query, k, x.opts.SearchL)
}

// SearchWithPool is Search with an explicit pool size l (the paper's
// search parameter): higher l gives higher recall and more work; l < k is
// promoted to k. On a sharded index every shard is searched with the same
// l and the answers merge by distance, so compared to a single NSG at
// equal l the merged candidate set is r times richer. Tombstoned ids (see
// Delete) never appear in results.
//
// The only allocations on the steady state are the two returned slices;
// all traversal scratch is drawn from the index's pools.
func (x *Index) SearchWithPool(query []float32, k, l int) ([]int32, []float32) {
	return x.searchOne(query, k, l, nil, nil)
}

// SearchWithStats is SearchWithPool plus per-query work accounting: hops
// and distance computations, summed across the shard searches on a
// sharded index.
func (x *Index) SearchWithStats(query []float32, k, l int) (ids []int32, dists []float32, st SearchStats) {
	ids, dists = x.searchOne(query, k, l, nil, &st)
	return ids, dists, st
}

// SearchFiltered returns the k nearest neighbors of query that pass the
// filter, using the index's default search pool size. A nil filter is an
// unfiltered Search.
func (x *Index) SearchFiltered(query []float32, k int, f *Filter) ([]int32, []float32) {
	return x.SearchFilteredWithPool(query, k, x.opts.SearchL, f)
}

// SearchFilteredWithPool is SearchFiltered with an explicit (per-shard)
// pool size l. While a shard's passing rows number no more than about
// sqrt(l · n · MaxDegree/2) of its n, its answer is an exact scan of them:
// recall 1 by construction, at a cost that follows the passing set. Past
// that crossover the traversal navigates through non-passing points but
// only passing points occupy pool slots, so recall at equal l tracks the
// unfiltered search (see the README's "Filtered search" section). Shards
// with no passing rows are skipped. Tombstoned and filtered-out ids never
// appear in results; fewer than k results mean fewer than k passing points
// exist.
func (x *Index) SearchFilteredWithPool(query []float32, k, l int, f *Filter) ([]int32, []float32) {
	return x.searchOne(query, k, l, f, nil)
}

// SearchFilteredWithStats is SearchFilteredWithPool plus the work
// accounting of SearchWithStats; an exact scan reports 0 hops.
func (x *Index) SearchFilteredWithStats(query []float32, k, l int, f *Filter) (ids []int32, dists []float32, st SearchStats) {
	ids, dists = x.searchOne(query, k, l, f, &st)
	return ids, dists, st
}

// searchOne is search with a merge buffer drawn from the index's pool.
func (x *Index) searchOne(query []float32, k, l int, f *Filter, st *SearchStats) ([]int32, []float32) {
	b := x.getBuf()
	ids, dists := x.search(b, query, k, l, f, st)
	x.putBuf(b)
	return ids, dists
}

// search is the one search every public entry point runs: the shard
// fan-out under f when it is non-nil, summing the shards' work into st when
// it is non-nil, merging into b's reused buffer and copying the answer into
// the two fresh caller-owned slices. A wrong-dimension query panics on the
// caller's goroutine (see distsearch.Sharded.Search).
func (x *Index) search(b *neighborBuf, query []float32, k, l int, f *Filter, st *SearchStats) ([]int32, []float32) {
	var flt *distsearch.ShardedFilter
	if f != nil {
		flt = f.inner
	}
	b.ns = x.s.Search(b.ns[:0], query, k, l, flt, st)
	return extractResults(b.ns)
}

// extractResults copies a neighbor list into the two fresh caller-owned
// slices every public search returns.
func extractResults(res []vecmath.Neighbor) ([]int32, []float32) {
	ids := make([]int32, len(res))
	dists := make([]float32, len(res))
	for i, n := range res {
		ids[i] = n.ID
		dists[i] = n.Dist
	}
	return ids, dists
}
