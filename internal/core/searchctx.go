package core

import (
	"sync"

	"repro/internal/graphutil"
	"repro/internal/vecmath"
)

// SearchContext holds every piece of per-query scratch state Algorithm 1
// needs: the fixed-capacity candidate pool, an epoch-stamped visited array
// (replacing the per-query map the seed implementation allocated), the
// result buffer, and a one-slot start-node buffer. A context is prepared
// lazily on first use and grows to the largest (n, l) it has served, after
// which a search performs zero heap allocations.
//
// Concurrency contract: a SearchContext may be owned by only one goroutine
// at a time. Serving loops keep one context per worker goroutine (or draw
// from a sync.Pool, as the public nsg.Index does) and reuse it across
// queries; the index itself stays read-only and fully shareable.
type SearchContext struct {
	pool     pool
	visited  graphutil.EpochVisited
	out      []vecmath.Neighbor
	startBuf [1]int32
	// idBuf/distBuf stage one expansion's unvisited neighbors so their
	// distances are computed by one batched gather (vecmath.L2ToRows)
	// instead of a call per neighbor. Sized to the largest adjacency seen.
	idBuf   []int32
	distBuf []float32
	// collect is scratch for build-time visited-collection (search-collect
	// passes reuse it so Algorithm 2 workers do not reallocate per node).
	collect []vecmath.Neighbor
	// dedupe stamps candidate ids during build-time dedupe and reverse-edge
	// merging, replacing the per-node maps the seed implementation allocated.
	dedupe graphutil.EpochVisited
	// keys is packed-key scratch for sorting candidate lists (sortedKeys)
	// and the filtered scan's k smallest code distances (kthSmallest);
	// keys2 is the radix sort's second buffer, swapped with keys per sort.
	keys, keys2 []uint64
	// alive holds the candidates SelectMRNGInto has not yet seen occluded;
	// reused across nodes by Algorithm 2 workers and the insert path.
	alive []int32
	// qlevels holds the prepared query (int16 grid levels) for the SQ8
	// search path, recomputed per query and sized once to the dimension.
	qlevels []int16
	// nav is the walk's second candidate pool: the best nodes the pass test
	// rejected (filtered out or deleted), kept for navigation only — they
	// route the traversal through non-passing regions but never reach
	// results. It stays empty when nothing is rejected.
	nav pool
	// delta describes a live index's pending rows for one query (see Delta).
	delta Delta
}

// Delta returns the context's Delta, which a live index overwrites with
// its pending rows before each query, so that the query allocates none.
func (c *SearchContext) Delta() *Delta { return &c.delta }

// distScratch returns a distance buffer of at least n entries, growing the
// context's buffer when needed and reusing it otherwise.
func (c *SearchContext) distScratch(n int) []float32 {
	if cap(c.distBuf) < n {
		c.distBuf = make([]float32, n+n/2+8)
	}
	return c.distBuf[:n]
}

// appendScored appends ids to dst with their distances to v, computed by
// one batched gather into the context's distance buffer.
func (c *SearchContext) appendScored(base vecmath.Matrix, v []float32, ids []int32, dst []vecmath.Neighbor) []vecmath.Neighbor {
	dists := c.distScratch(len(ids))
	vecmath.L2ToRows(base, v, ids, dists)
	for j, id := range ids {
		dst = append(dst, vecmath.Neighbor{ID: id, Dist: dists[j]})
	}
	return dst
}

// NewSearchContext returns an empty context; buffers are sized on first use.
func NewSearchContext() *SearchContext { return &SearchContext{} }

// begin prepares the context for one search over n nodes with pool size l.
func (c *SearchContext) begin(n, l int) {
	c.pool.reset(l)
	c.visited.Reset(n)
	if cap(c.out) < l {
		c.out = make([]vecmath.Neighbor, 0, l)
	} else {
		c.out = c.out[:0]
	}
}

// ctxFree recycles contexts for the legacy context-free entry points
// (SearchOnGraph, NSG.Search, ...), which keeps them allocation-light
// without changing their signatures or result-ownership semantics.
var ctxFree = sync.Pool{New: func() any { return NewSearchContext() }}

func getCtx() *SearchContext  { return ctxFree.Get().(*SearchContext) }
func putCtx(c *SearchContext) { ctxFree.Put(c) }

// copyNeighbors clones a context-owned result into caller-owned memory.
func copyNeighbors(src []vecmath.Neighbor) []vecmath.Neighbor {
	out := make([]vecmath.Neighbor, len(src))
	copy(out, src)
	return out
}
