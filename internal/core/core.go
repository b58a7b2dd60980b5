// Package core implements the paper's primary contribution: the Navigating
// Spreading-out Graph (NSG) index and the greedy best-first Search-on-Graph
// routine (Algorithm 1) that every graph index in this repository shares.
//
// An NSG is built from an approximate kNN graph by Algorithm 2:
//
//  1. Find the navigating node — the approximate medoid, located by
//     searching the kNN graph for the dataset centroid.
//  2. For every point p, run Search-on-Graph from the navigating node with
//     p as the query, collecting every node whose distance to p was
//     evaluated; merge in p's kNN neighbors.
//  3. Select at most m out-edges from the candidates with the MRNG edge
//     rule: accept candidate q unless an already accepted neighbor r lies
//     in lune(p,q) (pq would be the longest edge of triangle pqr).
//  4. Repair connectivity: span a DFS tree from the navigating node and
//     attach any unreached node to its approximate nearest in-tree
//     neighbor, repeating until all nodes are reachable.
//
// Search always starts from the navigating node, inheriting the MRNG's
// near-logarithmic expected path length.
package core

import (
	"math"
	"math/bits"

	"repro/internal/graphutil"
	"repro/internal/vecmath"
	"repro/internal/vecmath/quant"
)

// pool is the fixed-capacity ordered candidate pool of Algorithm 1. It keeps
// the best l candidates seen so far, ascending by (distance, id), each packed
// into one word: the distance's float32 bits, the id, and whether its
// out-edges have been expanded ("checked"):
//
//	dist bits << 32 | id << 1 | checked
//
// Distances are non-negative and never NaN (L2 and the quantized code
// distances are sums of squares; the library refuses non-finite input), and
// for such floats the bit order is the value order, so comparing keys as
// integers orders entries exactly as vecmath.CompareNeighbors does. Ids are
// non-negative int32s, so id << 1 fits in the low word. An insert is a
// binary search and a shift over 8-byte words.
type pool struct {
	keys []uint64
	cap  int
}

func newPool(l int) *pool {
	return &pool{keys: make([]uint64, 0, l+1), cap: l}
}

// packKey packs an unchecked pool entry.
func packKey(id int32, dist float32) uint64 {
	return uint64(math.Float32bits(dist))<<32 | uint64(uint32(id))<<1
}

// unpackKey is packKey's inverse; it ignores the checked bit.
func unpackKey(k uint64) vecmath.Neighbor {
	return vecmath.Neighbor{ID: int32(uint32(k) >> 1), Dist: math.Float32frombits(uint32(k >> 32))}
}

func (p *pool) len() int                        { return len(p.keys) }
func (p *pool) id(i int) int32                  { return int32(uint32(p.keys[i]) >> 1) }
func (p *pool) dist(i int) float32              { return math.Float32frombits(uint32(p.keys[i] >> 32)) }
func (p *pool) checked(i int) bool              { return p.keys[i]&1 != 0 }
func (p *pool) check(i int)                     { p.keys[i] |= 1 }
func (p *pool) neighbor(i int) vecmath.Neighbor { return unpackKey(p.keys[i]) }

// reset empties the pool and retargets it to capacity l, reusing the backing
// array whenever it is large enough.
func (p *pool) reset(l int) {
	p.cap = l
	if cap(p.keys) < l+1 {
		p.keys = make([]uint64, 0, l+1)
	} else {
		p.keys = p.keys[:0]
	}
}

// insert offers a candidate. Returns the insertion position, or -1 if the
// candidate was rejected (full pool and not strictly nearer than the worst
// retained distance — an equal distance is rejected whatever its id) or
// already present.
func (p *pool) insert(id int32, dist float32) int {
	key := packKey(id, dist)
	n := len(p.keys)
	if n == p.cap && key>>32 >= p.keys[n-1]>>32 {
		return -1
	}
	// First entry ordered at or after key. The unchecked key sorts just
	// below its checked twin, so an entry already holding (dist, id) lands
	// exactly here, checked or not. The search is branch-free: where a
	// fresh candidate lands is as unpredictable as its distance, so each
	// step moves base by half or by nothing with the borrow of
	// keys[base+half] - key (set when that entry sorts before key) instead
	// of a jump. [base, base+span] always holds the answer.
	lo := 0
	if n > 0 {
		base := 0
		for span := n; span > 1; {
			half := span >> 1
			_, before := bits.Sub64(p.keys[base+half], key, 0)
			base += half & -int(before)
			span -= half
		}
		_, before := bits.Sub64(p.keys[base], key, 0)
		lo = base + int(before)
	}
	if lo < n && p.keys[lo]&^1 == key {
		return -1
	}
	p.keys = append(p.keys, 0)
	copy(p.keys[lo+1:], p.keys[lo:])
	p.keys[lo] = key
	if len(p.keys) > p.cap {
		p.keys = p.keys[:p.cap]
	}
	return lo
}

// SearchResult reports what a Search-on-Graph run did, for the paper's
// complexity experiments: hops is the number of pool expansions (search path
// length l in the o·l cost model), and the distance computations are counted
// by the caller's vecmath.Counter.
type SearchResult struct {
	Neighbors []vecmath.Neighbor
	Hops      int
}

// adjacencySource abstracts the two graph layouts Algorithm 1 traverses:
// ragged adjacency lists (mutable graphs, build time) and the fixed-stride
// flat array (immutable serving layout). The search body is instantiated
// once per concrete layout so both compile to direct calls; having a single
// body guarantees the two layouts produce byte-identical results.
type adjacencySource interface {
	neighbors(id int32) []int32
}

type listAdj struct{ adj [][]int32 }

func (a listAdj) neighbors(id int32) []int32 { return a.adj[id] }

type flatAdj struct{ g *graphutil.FlatGraph }

func (a flatAdj) neighbors(id int32) []int32 { return a.g.Neighbors(id) }

// distSource abstracts where Algorithm 1's candidate distances come from:
// exact float32 rows (the default, and the only source build-time passes
// use) or SQ8 code rows (the quantized serving path, whose approximation is
// corrected by an exact rerank before results are emitted). Like
// adjacencySource, the search body is instantiated per concrete source so
// both compile to direct calls and the float path stays byte-identical to
// what it was before quantization existed.
type distSource interface {
	// toRows is the batched gather: distance to every id, one counter update.
	toRows(counter *vecmath.Counter, ids []int32, out []float32)
	// deltaRows is the batched scan over one delta chunk's rows, in the same
	// distance space as one/toRows: exact float rows on the float path, SQ8
	// code rows on the quantized path. out must hold ch.Rows() values.
	deltaRows(counter *vecmath.Counter, ch *DeltaChunk, out []float32)
}

// floatDist scores candidates with exact squared L2 over the base matrix.
type floatDist struct {
	base  vecmath.Matrix
	query []float32
}

func (d floatDist) toRows(counter *vecmath.Counter, ids []int32, out []float32) {
	counter.L2ToRows(d.base, d.query, ids, out)
}

func (d floatDist) deltaRows(counter *vecmath.Counter, ch *DeltaChunk, out []float32) {
	counter.L2ToRows(ch.Vecs, d.query, ch.Seq, out)
}

// codeDist scores candidates with the asymmetric SQ8 kernel over the code
// matrix: a 1-byte-per-dimension gather instead of 4. Each scanned code row
// counts as one distance evaluation, the same convention the IVFPQ
// baseline's ADC scan uses.
type codeDist struct {
	q      *quant.Quantizer
	codes  quant.CodeMatrix
	levels []int16 // the prepared query (Quantizer.PrepareInto)
}

func (d codeDist) toRows(counter *vecmath.Counter, ids []int32, out []float32) {
	d.q.L2ToRowsCount(counter, d.codes, d.levels, ids, out)
}

func (d codeDist) deltaRows(counter *vecmath.Counter, ch *DeltaChunk, out []float32) {
	d.q.L2ToRowsCount(counter, ch.Codes, d.levels, ch.Seq, out)
}

// passTest is the one thing that varies between the searches sharing
// Algorithm 1's body: which scored candidates may hold a result slot. A
// candidate that fails still routes — it goes to the navigation pool (see
// filtered.go) — so the walk never loses a monotonic path to a predicate or
// a tombstone. The body is instantiated per concrete test, like
// adjacencySource and distSource.
type passTest interface {
	// node is asked once for every graph node whose distance d to the query
	// was just computed, in evaluation order.
	node(internal int32, d float32) bool
	// deltaRow is the same question for a pending insert, by its final id.
	deltaRow(id int32) bool
}

// passAll admits everything: the plain search, whose navigation pool stays
// empty and whose walk is the paper's single-pool Algorithm 1 exactly.
type passAll struct{}

func (passAll) node(int32, float32) bool { return true }
func (passAll) deltaRow(int32) bool      { return true }

// collectAll is passAll that also records every evaluated node — the
// search-and-collect hook Algorithm 2 gathers its pruning candidates with.
type collectAll struct{ out *[]vecmath.Neighbor }

func (c collectAll) node(id int32, d float32) bool {
	*c.out = append(*c.out, vecmath.Neighbor{ID: id, Dist: d})
	return true
}
func (collectAll) deltaRow(int32) bool { return true }

// searchOnGraph is the exact-float plain search the exported SearchOnGraph*
// wrappers share: visited, when non-nil, receives every evaluated node.
func searchOnGraph[A adjacencySource](ctx *SearchContext, a A, n int, base vecmath.Matrix, query []float32, starts []int32, k, l int, counter *vecmath.Counter, visited *[]vecmath.Neighbor) SearchResult {
	dist := floatDist{base: base, query: query}
	if visited != nil {
		return walk(ctx, a, n, dist, starts, k, l, 0, counter, nil, collectAll{out: visited})
	}
	return walk(ctx, a, n, dist, starts, k, l, 0, counter, nil, passAll{})
}

// pickFiltered advances both cursors past checked elements and returns the
// pool holding the next candidate the two-pool rule expands, with its index
// — or (nil, -1) when the search is done. The rule: expand the globally
// nearest unchecked candidate, except that a navigation candidate is only
// worth expanding while it could still lead to a main-pool insertion (main
// pool not full, or the candidate nearer than the worst retained passing
// candidate). With an empty navigation pool this is Algorithm 1 line 4.
func (c *SearchContext) pickFiltered(nextP, nextN *int) (*pool, int) {
	p, nv := &c.pool, &c.nav
	for *nextP < p.len() && p.checked(*nextP) {
		*nextP++
	}
	for *nextN < nv.len() && nv.checked(*nextN) {
		*nextN++
	}
	var sel *pool
	idx := -1
	if *nextP < p.len() {
		sel, idx = p, *nextP
	}
	if *nextN < nv.len() {
		d := nv.dist(*nextN)
		useful := p.len() < p.cap || d < p.dist(p.len()-1)
		// Ties go to the main pool: a passing candidate at equal distance
		// both navigates and scores.
		if useful && (idx < 0 || d < p.dist(idx)) {
			sel, idx = nv, *nextN
		}
	}
	return sel, idx
}

// walk is Algorithm 1, the only traversal body in this package: greedy
// best-first search from starts, routing every scored node into the main
// pool (admitted by pf, capacity l) or the navigation pool (not admitted,
// capacity lnav), expanding across both per pickFiltered and returning the
// nearest k of the main pool. Under passAll the navigation pool stays empty
// and this is the paper's single-pool loop. All scratch lives in ctx, so the
// steady state allocates nothing; the returned Neighbors slice aliases
// ctx.out and is valid until ctx's next search.
//
// delta, when non-nil, is a set of rows that exist outside the graph (a
// live-update buffer not yet merged into the serving snapshot): after the
// graph expansion finishes they are offered to the main pool by offerDelta,
// so a pending insert competes with graph points for the final top k (and,
// on the quantized path, is reranked with everything else).
func walk[A adjacencySource, D distSource, P passTest](ctx *SearchContext, a A, n int, dist D, starts []int32, k, l, lnav int, counter *vecmath.Counter, delta *Delta, pf P) SearchResult {
	if l < k {
		l = k
	}
	ctx.begin(n, l)
	ctx.nav.reset(lnav)
	p, nv := &ctx.pool, &ctx.nav
	hops := 0
	// Index of the first possibly-unchecked element of each pool; everything
	// before it is known checked.
	nextP, nextN := 0, 0
	// Each round scores the starts or an expanded node's out-edges.
	for nbs := starts; ; hops++ {
		// Stage the unvisited ids, then compute their distances in one
		// batched gather: the kernel call replaces one distance call (and one
		// counter update) per id. The pass test runs on the insert side, so
		// the gather kernels never see it.
		fresh := ctx.visited.Stage(ctx.idBuf, nbs)
		ctx.idBuf = fresh
		dists := ctx.distScratch(len(fresh))
		dist.toRows(counter, fresh, dists)
		// The pass test sees every scored node in order. Passing ones are
		// compacted in place without a branch (their fate is a coin flip),
		// keeping, once the pool is full, those nearer than its worst entry
		// as the round began: that only falls, so no insert is lost.
		thr := uint64(1) << 32
		if size := p.len(); size > 0 && size == p.cap {
			thr = p.keys[size-1] >> 32
		}
		m := 0
		for i, nb := range fresh {
			d := dists[i]
			if pf.node(nb, d) {
				fresh[m], dists[m] = nb, d
				m += int((uint64(math.Float32bits(d)) - thr) >> 63)
			} else if pos := nv.insert(nb, d); pos >= 0 && pos < nextN {
				nextN = pos
			}
		}
		// Resume each pool's scan from its shallowest new candidate:
		// anything before it is unchanged and already checked.
		for i, nb := range fresh[:m] {
			if pos := p.insert(nb, dists[i]); pos >= 0 && pos < nextP {
				nextP = pos
			}
		}
		pl, idx := ctx.pickFiltered(&nextP, &nextN)
		if idx < 0 {
			break
		}
		pl.check(idx)
		nbs = a.neighbors(pl.id(idx))
	}

	if delta != nil {
		offerDelta(ctx, n, dist, delta, counter, pf)
	}

	return SearchResult{Neighbors: emit(ctx, k), Hops: hops}
}

// offerDelta offers every admitted pending delta row to the main pool under
// id n+offset, so the final pool is the best l of (graph candidates ∪ delta
// rows). Every row is scored — one batched deltaRows scan per chunk, in the
// same distance space the graph expansion used — and the pass test runs on
// the insert side. Delta elements are born checked: they have no out-edges
// to expand.
func offerDelta[D distSource, P passTest](ctx *SearchContext, n int, dist D, delta *Delta, counter *vecmath.Counter, pf P) {
	p := &ctx.pool
	for ci := range delta.Chunks {
		ch := &delta.Chunks[ci]
		rows := ch.Rows()
		if rows == 0 {
			continue
		}
		dists := ctx.distScratch(rows)
		dist.deltaRows(counter, ch, dists)
		for j := 0; j < rows; j++ {
			if !pf.deltaRow(ch.IDs[j]) {
				continue
			}
			if pos := p.insert(int32(n+ch.Off+j), dists[j]); pos >= 0 {
				p.check(pos)
			}
		}
	}
}

// emit copies the pool's nearest k candidates into ctx.out and returns the
// slice — the final step of every search.
func emit(ctx *SearchContext, k int) []vecmath.Neighbor {
	p := &ctx.pool
	k = min(k, p.len())
	out := ctx.out[:0]
	for i := 0; i < k; i++ {
		out = append(out, p.neighbor(i))
	}
	ctx.out = out
	return out
}

// SearchOnGraphCtx is Algorithm 1 over the fixed-stride flat layout with
// caller-owned scratch: pass the same ctx on every query from a goroutine
// and the steady state performs zero heap allocations. The returned
// Neighbors slice aliases the context and is valid only until the context's
// next search — copy it to retain. visited, when non-nil, receives every
// node whose distance to the query was computed. counter may be nil.
func SearchOnGraphCtx(ctx *SearchContext, g *graphutil.FlatGraph, base vecmath.Matrix, query []float32, starts []int32, k, l int, counter *vecmath.Counter, visited *[]vecmath.Neighbor) SearchResult {
	return searchOnGraph(ctx, flatAdj{g: g}, g.Nodes, base, query, starts, k, l, counter, visited)
}

// SearchOnGraphListCtx is SearchOnGraphCtx over ragged adjacency lists; it
// exists for graphs that are still mutating (Algorithm 2's connectivity
// repair, incremental inserts), where maintaining a flat copy per mutation
// would cost more than the layout saves.
func SearchOnGraphListCtx(ctx *SearchContext, adj [][]int32, base vecmath.Matrix, query []float32, starts []int32, k, l int, counter *vecmath.Counter, visited *[]vecmath.Neighbor) SearchResult {
	return searchOnGraph(ctx, listAdj{adj: adj}, len(adj), base, query, starts, k, l, counter, visited)
}

// SearchOnGraph is Algorithm 1: greedy best-first search over adjacency
// lists adj on the points in base, starting from the nodes in starts,
// returning the k nearest candidates to query found with a pool of size l.
// visited, when non-nil, receives every node whose distance to the query was
// computed — the "search-and-collect" hook Algorithm 2 uses to gather
// pruning candidates. counter may be nil.
//
// The returned slice is caller-owned. Hot loops should prefer
// SearchOnGraphCtx (or the ctx-taking index methods), which reuse all
// scratch state; this signature draws a context from a pool and copies the
// result out.
func SearchOnGraph(adj [][]int32, base vecmath.Matrix, query []float32, starts []int32, k, l int, counter *vecmath.Counter, visited *[]vecmath.Neighbor) SearchResult {
	ctx := getCtx()
	res := SearchOnGraphListCtx(ctx, adj, base, query, starts, k, l, counter, visited)
	out := copyNeighbors(res.Neighbors)
	putCtx(ctx)
	return SearchResult{Neighbors: out, Hops: res.Hops}
}
