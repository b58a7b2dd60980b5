package nsg

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/distsearch"
	"repro/internal/vecmath"
)

// engine is the one index implementation behind Index and ShardedIndex: a
// distsearch.Sharded (one shard for an Index), the per-shard options its
// builds, inserts and default searches use, and the pool of merge buffers
// its searches draw from. Both types embed it, so every method they share
// is defined once: here and in the files beside it.
type engine struct {
	s    *distsearch.Sharded
	opts Options
	// metaMu serializes AddWithMetadata's id assignment with its row write.
	metaMu sync.Mutex
	// bufs recycles merge destination buffers, so a steady-state search
	// allocates nothing beyond the two slices it returns.
	bufs sync.Pool
}

// init attaches a built, loaded or mapped index, handing its shard
// maintainers the insert parameters of opts.
func (e *engine) init(s *distsearch.Sharded, opts Options) {
	e.s, e.opts = s, opts
	s.SetLiveOptions(LiveOptions{}.internal(e.insertParams()))
}

// insertParams is what the maintainers insert with: the build's degree cap
// and pool.
func (e *engine) insertParams() core.InsertParams {
	return core.InsertParams{M: e.opts.MaxDegree, L: e.opts.BuildL}
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

// build is the one build pipeline (every builder, and Compact through
// distsearch): per shard, the kNN graph, Algorithm 2, a BFS relayout into
// cache order, then the SQ8 encode when opts asks for it. base is copied
// into the shards; ids stay the caller's row numbers. It returns the index
// and opts with its defaults filled.
func build(base vecmath.Matrix, opts Options, shards int) (*distsearch.Sharded, Options, error) {
	if err := opts.Quantize.check(); err != nil {
		return nil, opts, err
	}
	if !vecmath.Finite(base.Data) {
		return nil, opts, ErrNonFinite
	}
	opts.fillDefaults()
	s, err := distsearch.BuildSharded(base, params(opts, max(shards, 1)))
	if err != nil {
		return nil, opts, fmt.Errorf("nsg: build: %w", err)
	}
	return s, opts, nil
}

// BuildStats returns the timing breakdown recorded when the index was
// built, or, after a Compact that dropped points, of that Compact's
// rebuild. Phases are summed over the shards, and Total is the wall time.
// Loaded and mapped indexes report a zero value.
func (e *engine) BuildStats() BuildStats { return e.s.BuildStats() }

// Len returns the number of indexed vectors, pending ones included. Safe
// to call concurrently with Add.
func (e *engine) Len() int { return e.s.Len() }

// Dim returns the vector dimension.
func (e *engine) Dim() int { return e.s.Dim() }

// Vector returns the stored vector with the given id, or nil for an id
// outside [0, Len()). The returned slice aliases the index's storage; do
// not modify it. Safe to call concurrently with Add.
func (e *engine) Vector(id int) []float32 {
	if id < 0 || id >= e.Len() {
		return nil
	}
	return e.s.VectorByID(id)
}

// Quantized reports whether the index serves through a quantized search
// path (built with Options.Quantize or loaded from a quantized file).
func (e *engine) Quantized() bool { return e.s.Quantized() }

// QuantMode returns the index's compressed serving mode (QuantNone when it
// serves full float32 vectors; all shards share one quantization state).
func (e *engine) QuantMode() QuantMode { return quantModeOf(e.s.Quantized()) }

// ReadOnly reports whether the index is a mapped, read-only view (opened
// with OpenMapped or OpenMappedSharded). Mutating operations on such an
// index return ErrReadOnly.
func (e *engine) ReadOnly() bool { return e.s.ReadOnly() }

// Close flushes pending Adds, so no point is lost, and stops the
// maintainer goroutines. An Index runs no other goroutine: a heap one stays
// usable after Close (a later Add starts its maintainer again), while a
// mapped one releases its file mapping and must not be searched
// afterwards. A ShardedIndex of more than one shard also releases its
// shard workers and must not be used after Close; long-lived serving
// processes never need it, but code that builds and discards many indexes
// in one process should call it. Do not call while other goroutines are
// still using the index.
func (e *engine) Close() { e.s.Close() }

type neighborBuf struct{ ns []vecmath.Neighbor }

func (e *engine) getBuf() *neighborBuf {
	if b, _ := e.bufs.Get().(*neighborBuf); b != nil {
		return b
	}
	return &neighborBuf{}
}

func (e *engine) putBuf(b *neighborBuf) { e.bufs.Put(b) }

// Search returns the ids and squared L2 distances of the k approximate
// nearest neighbors of query, using the index's default search pool size.
func (e *engine) Search(query []float32, k int) ([]int32, []float32) {
	return e.SearchWithPool(query, k, e.opts.SearchL)
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
func (e *engine) SearchWithPool(query []float32, k, l int) ([]int32, []float32) {
	return e.searchOne(query, k, l, nil, nil)
}

// SearchWithStats is SearchWithPool plus per-query work accounting: hops
// and distance computations, summed across the shard searches on a
// sharded index.
func (e *engine) SearchWithStats(query []float32, k, l int) (ids []int32, dists []float32, st SearchStats) {
	ids, dists = e.searchOne(query, k, l, nil, &st)
	return ids, dists, st
}

// SearchFiltered returns the k nearest neighbors of query that pass the
// filter, using the index's default search pool size. A nil filter is an
// unfiltered Search.
func (e *engine) SearchFiltered(query []float32, k int, f *Filter) ([]int32, []float32) {
	return e.SearchFilteredWithPool(query, k, e.opts.SearchL, f)
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
func (e *engine) SearchFilteredWithPool(query []float32, k, l int, f *Filter) ([]int32, []float32) {
	return e.searchOne(query, k, l, f, nil)
}

// SearchFilteredWithStats is SearchFilteredWithPool plus the work
// accounting of SearchWithStats; an exact scan reports 0 hops.
func (e *engine) SearchFilteredWithStats(query []float32, k, l int, f *Filter) (ids []int32, dists []float32, st SearchStats) {
	ids, dists = e.searchOne(query, k, l, f, &st)
	return ids, dists, st
}

// searchOne is search with a merge buffer drawn from the index's pool.
func (e *engine) searchOne(query []float32, k, l int, f *Filter, st *SearchStats) ([]int32, []float32) {
	b := e.getBuf()
	ids, dists := e.search(b, query, k, l, f, st)
	e.putBuf(b)
	return ids, dists
}

// search is the one search every public entry point runs: the shard
// fan-out under f when it is non-nil, summing the shards' work into st when
// it is non-nil, merging into b's reused buffer and copying the answer into
// the two fresh caller-owned slices. A wrong-dimension query panics on the
// caller's goroutine (see distsearch.Sharded.Search).
func (e *engine) search(b *neighborBuf, query []float32, k, l int, f *Filter, st *SearchStats) ([]int32, []float32) {
	var flt *distsearch.ShardedFilter
	if f != nil {
		flt = f.inner
	}
	b.ns = e.s.Search(b.ns[:0], query, k, l, flt, st)
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
