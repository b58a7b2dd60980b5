package core

import (
	"errors"

	"repro/internal/vecmath"
	"repro/internal/vecmath/quant"
)

// ErrNoMetadata is returned when a predicate is compiled against an index
// that carries no metadata column store.
var ErrNoMetadata = errors.New("core: index has no metadata store")

// This file is the predicate-aware ("filtered") Search-on-Graph: Algorithm 1
// constrained to points passing a caller-compiled bitmap, generalizing the
// tombstone skip-set. The failure mode it exists to avoid is post-filtering:
// run the plain search, drop non-passing results, and at 1% selectivity the
// pool's top k is almost entirely filtered away — recall collapses exactly
// when filtering matters most.
//
// Instead the traversal keeps two pools. The main pool holds only passing
// candidates and is what results are emitted from, so it stays full of
// answers no matter the selectivity. Non-passing nodes go to a second
// navigation-only pool: their out-edges are still expanded — removing them
// would sever the monotonic paths the NSG's edge selection guarantees
// (Theorem 2's walk argument assumes the full graph) — but they never occupy
// a result slot. The navigation pool is over-expanded adaptively: its
// capacity scales with 1/selectivity (clamped), because at low selectivity
// the walk must traverse proportionally more non-passing territory between
// one passing point and the next. A navigation candidate is expanded only
// while it could still improve the main pool (nearer than the worst retained
// passing candidate, or the main pool not yet full) — the same termination
// bound Algorithm 1 applies to a single pool, so the filtered walk stops as
// soon as the passing frontier is settled.
//
// At very low selectivity graph traversal loses to exhaustion: when few
// points pass, scoring exactly the passing set is cheaper than walking the
// graph past thousands of non-passing nodes. Below a small cutoff the search
// switches to a brute-force exact scan over the passing ids — which is also
// the reference the recall gates compare against, so in that regime filtered
// search is exact by construction.
//
// Tombstones fold into the pass test itself (a dead point is just another
// non-passing point that still routes), so filtered searches never
// over-fetch by the tombstone count the way the unfiltered live path does.

// Filter is a compiled predicate the filtered search paths consume: one bit
// per id, set when the point passes. Callers build one with the public
// CompileFilter (backed by meta.Store.Compile) and may reuse it across
// queries and goroutines — a Filter is immutable once built.
type Filter struct {
	// Bits is the pass bitmap, indexed by final (public) id — bit id&63 of
	// word id>>6. Ids at or past the bitmap's range fail closed.
	Bits []uint64
	// Count is the number of set bits over the id range this index serves;
	// it drives the adaptive navigation-pool sizing and the brute-force
	// cutoff. Count == 0 short-circuits to an empty result.
	Count int
	// DeltaBits, when non-nil, is the pass bitmap for delta (pending-insert)
	// ids, which live in final id space already; nil means Bits covers them.
	// A sharded live index sets it to the global bitmap while Bits stays
	// whatever the snapshot's translate table maps into.
	DeltaBits []uint64
	// Remap, when non-nil, translates a point's public id into the id space
	// Bits is indexed by — a shard's local→global table. The live path
	// ignores it and uses LiveQuery.Translate instead (same role).
	Remap []int32
	// MaxNav caps the navigation pool size; 0 applies the default clamp
	// (maxNavFactor x l).
	MaxNav int
}

// test reports whether final id passes the bitmap (fail closed out of range).
func bitTest(bits []uint64, id int32) bool {
	w := int(id) >> 6
	if id < 0 || w >= len(bits) {
		return false
	}
	return bits[w]&(1<<uint(id&63)) != 0
}

// passFilter is the per-search pass test: internal id → public id (pubIDs)
// → liveness (dead) → final id (remap) → bitmap. Built once per search and
// passed by value, so the hot path costs one or two array reads per node.
type passFilter struct {
	bits   []uint64
	pubIDs []int32 // internal → public; nil = identity
	remap  []int32 // public → final bitmap id; nil = identity
	dead   *Tombstones
}

func (f passFilter) pass(internal int32) bool {
	id := internal
	if f.pubIDs != nil {
		id = f.pubIDs[internal]
	}
	if f.dead != nil && f.dead.Deleted(id) {
		return false
	}
	if f.remap != nil {
		id = f.remap[id]
	}
	return bitTest(f.bits, id)
}

const (
	// maxNavFactor clamps the navigation pool's selectivity scaling: below
	// 1/maxNavFactor selectivity the brute-force cutoff usually takes over
	// anyway, and an unbounded factor would make adversarial bitmaps walk
	// the whole graph.
	maxNavFactor = 32
	// bruteForceMin is the passing-set size below which exhaustive scoring
	// always wins (the cutoff also scales with l; see useBruteForce).
	bruteForceMin = 256
)

// navPoolSize returns the navigation pool capacity for a search with pool
// size l over n nodes and count passing points: l scaled by 1/selectivity,
// clamped to [l, maxNavFactor*l], then by flt.MaxNav if set.
func navPoolSize(n, l int, flt *Filter) int {
	factor := 1
	if flt.Count > 0 && n > flt.Count {
		factor = n / flt.Count
	}
	if factor > maxNavFactor {
		factor = maxNavFactor
	}
	lnav := l * factor
	if flt.MaxNav > 0 && lnav > flt.MaxNav {
		lnav = flt.MaxNav
	}
	if lnav < l {
		lnav = l
	}
	return lnav
}

// useBruteForce reports whether the passing set is small enough that exact
// exhaustive scoring beats graph traversal.
func useBruteForce(l int, flt *Filter) bool {
	cutoff := bruteForceMin
	if 4*l > cutoff {
		cutoff = 4 * l
	}
	return flt.Count <= cutoff
}

// pickFiltered advances both cursors past checked elements and returns the
// pool holding the next candidate the two-pool rule expands, with its index
// — or (nil, -1) when the search is done. The rule: expand the globally
// nearest unchecked candidate, except that a navigation candidate is only
// worth expanding while it could still lead to a main-pool insertion (main
// pool not full, or the candidate nearer than the worst retained passing
// candidate).
func (c *SearchContext) pickFiltered(nextP, nextN *int) (*pool, int) {
	p, nv := &c.pool, &c.nav
	for *nextP < len(p.elems) && p.elems[*nextP].checked {
		*nextP++
	}
	for *nextN < len(nv.elems) && nv.elems[*nextN].checked {
		*nextN++
	}
	var sel *pool
	idx := -1
	if *nextP < len(p.elems) {
		sel, idx = p, *nextP
	}
	if *nextN < len(nv.elems) {
		cand := nv.elems[*nextN]
		useful := len(p.elems) < p.cap || cand.dist < p.elems[len(p.elems)-1].dist
		// Ties go to the main pool: a passing candidate at equal distance
		// both navigates and scores.
		if useful && (idx < 0 || cand.dist < p.elems[idx].dist) {
			sel, idx = nv, *nextN
		}
	}
	return sel, idx
}

// searchFilteredCtx is the two-pool filtered Algorithm 1: greedy best-first
// from starts over the graph, routing every scored node into the main pool
// (passing, capacity l) or the navigation pool (non-passing, capacity lnav),
// expanding across both per pickFiltered. Results are emitted from the main
// pool only. Delta rows, when present, are offered after the walk, gated by
// the delta bitmap (and tombstones) before taking a slot. All scratch lives
// in ctx; the steady state allocates nothing.
func searchFilteredCtx[A adjacencySource, D distSource](ctx *SearchContext, a A, n int, dist D, starts []int32, k, l int, counter *vecmath.Counter, delta *Delta, flt *Filter, pf passFilter) SearchResult {
	if l < k {
		l = k
	}
	ctx.begin(n, l)
	ctx.nav.reset(navPoolSize(n, l, flt))
	p, nv := &ctx.pool, &ctx.nav
	for _, s := range starts {
		if !ctx.visited.Visit(s) {
			continue
		}
		d := dist.one(counter, s)
		if pf.pass(s) {
			p.insert(s, d)
		} else {
			nv.insert(s, d)
		}
	}

	hops := 0
	nextP, nextN := 0, 0
	for {
		pl, idx := ctx.pickFiltered(&nextP, &nextN)
		if idx < 0 {
			break
		}
		pl.elems[idx].checked = true
		curID := pl.elems[idx].id
		hops++
		// Stage the unvisited neighbors, then one batched gather — same
		// shape as the unfiltered loop; the pass test runs on the insert
		// side so the gather kernels stay untouched.
		fresh := ctx.idBuf[:0]
		for _, nb := range a.neighbors(curID) {
			if ctx.visited.Visit(nb) {
				fresh = append(fresh, nb)
			}
		}
		ctx.idBuf = fresh
		dists := ctx.distScratch(len(fresh))
		dist.toRows(counter, fresh, dists)
		for i, nb := range fresh {
			if pf.pass(nb) {
				if pos := p.insert(nb, dists[i]); pos >= 0 && pos < nextP {
					nextP = pos
				}
			} else {
				if pos := nv.insert(nb, dists[i]); pos >= 0 && pos < nextN {
					nextN = pos
				}
			}
		}
	}

	if delta != nil {
		mergeDeltaFiltered(ctx, n, dist, delta, counter, flt, pf.dead)
	}

	return SearchResult{Neighbors: emit(ctx, k), Hops: hops}
}

// mergeDeltaFiltered is mergeDelta gated by the delta bitmap: every pending
// row is scored (batched, same distance space as the walk) but only passing,
// live rows are offered to the main pool. Delta ids are final ids, so the
// bitmap indexes directly — no remap.
func mergeDeltaFiltered[D distSource](ctx *SearchContext, n int, dist D, delta *Delta, counter *vecmath.Counter, flt *Filter, dead *Tombstones) {
	bits := flt.DeltaBits
	if bits == nil {
		bits = flt.Bits
	}
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
			id := ch.IDs[j]
			if dead != nil && dead.Deleted(id) {
				continue
			}
			if !bitTest(bits, id) {
				continue
			}
			if pos := p.insert(int32(n+ch.Off+j), dists[j]); pos >= 0 {
				p.elems[pos].checked = true
			}
		}
	}
}

// bruteForceFiltered is the low-selectivity exact path: score every passing
// point (one batched float gather over the passing ids) plus every passing
// delta row, keep the best k. Always exact float32 distances regardless of
// quantization — at a few hundred candidates the code matrix saves nothing.
// Results are internal/delta ids, hops 0.
func bruteForceFiltered(ctx *SearchContext, base vecmath.Matrix, query []float32, n, k int, counter *vecmath.Counter, delta *Delta, flt *Filter, pf passFilter) SearchResult {
	ctx.begin(n, k)
	ids := ctx.idBuf[:0]
	for i := 0; i < n; i++ {
		if pf.pass(int32(i)) {
			ids = append(ids, int32(i))
		}
	}
	ctx.idBuf = ids
	dists := ctx.distScratch(len(ids))
	counter.L2ToRows(base, query, ids, dists)
	p := &ctx.pool
	for i, id := range ids {
		p.insert(id, dists[i])
	}
	if delta != nil {
		mergeDeltaFiltered(ctx, n, floatDist{base: base, query: query}, delta, counter, flt, pf.dead)
	}
	return SearchResult{Neighbors: emit(ctx, k)}
}

// emptyResult resets ctx.out and returns an empty result — the Count == 0
// short-circuit, so a predicate matching nothing costs no distance work.
func emptyResult(ctx *SearchContext) SearchResult {
	if ctx.out == nil {
		ctx.out = make([]vecmath.Neighbor, 0, 1)
	}
	ctx.out = ctx.out[:0]
	return SearchResult{Neighbors: ctx.out}
}

// SearchFilteredCtx is SearchFilteredWithHopsCtx returning just the
// neighbors; reuse ctx across queries and the steady state allocates
// nothing. The slice aliases ctx and is valid until its next search.
func (x *NSG) SearchFilteredCtx(ctx *SearchContext, query []float32, k, l int, dead *Tombstones, flt *Filter, counter *vecmath.Counter) []vecmath.Neighbor {
	return x.SearchFilteredWithHopsCtx(ctx, query, k, l, dead, flt, counter).Neighbors
}

// SearchFilteredWithHopsCtx is the filtered root of the non-live NSG query
// paths: the two-pool walk (quantized indexes expand in code space and
// rerank the main pool exactly), or the exact brute-force scan when few
// points pass. Emitted ids are public, distances exact float32 either way. A
// nil flt degrades to the unfiltered live search with the same dead set.
func (x *NSG) SearchFilteredWithHopsCtx(ctx *SearchContext, query []float32, k, l int, dead *Tombstones, flt *Filter, counter *vecmath.Counter) SearchResult {
	if flt == nil {
		res := x.SearchWithHopsCtx(ctx, query, withDead(k, dead), withDead(l, dead), counter)
		if dead != nil && dead.Len() > 0 {
			res.Neighbors = filterDead(res.Neighbors, dead, k)
		}
		return res
	}
	if flt.Count == 0 {
		return emptyResult(ctx)
	}
	if l < k {
		l = k
	}
	if dead != nil && dead.Len() == 0 {
		dead = nil
	}
	pf := passFilter{bits: flt.Bits, pubIDs: x.PubIDs, remap: flt.Remap, dead: dead}
	var res SearchResult
	switch {
	case useBruteForce(l, flt):
		res = bruteForceFiltered(ctx, x.Base, query, x.Base.Rows, k, counter, nil, flt, pf)
	case x.Quant != nil:
		res = x.searchQuantFiltered(ctx, query, k, l, counter, nil, flt, pf)
	default:
		f := x.FlatView()
		ctx.startBuf[0] = x.Navigating
		res = searchFilteredCtx(ctx, flatAdj{g: f}, f.Nodes, floatDist{base: x.Base, query: query}, ctx.startBuf[:], k, l, counter, nil, flt, pf)
	}
	x.toPublic(res.Neighbors)
	return res
}

// searchQuantFiltered runs the filtered walk in code space (SQ8 or int4 per
// the index's mode) keeping the whole main pool, then reranks it exactly —
// the same approximation-prices-pool-membership contract as the unfiltered
// quantized path. Results are internal ids.
func (x *NSG) searchQuantFiltered(ctx *SearchContext, query []float32, k, l int, counter *vecmath.Counter, d *Delta, flt *Filter, pf passFilter) SearchResult {
	qz := x.Quant
	f := x.FlatView()
	ctx.startBuf[0] = x.Navigating
	var res SearchResult
	if qz.Mode == quant.ModeInt4 {
		ctx.qlevels = qz.Q4.PrepareInto(ctx.qlevels[:0], query)
		dist := code4Dist{q: &qz.Q4, codes: qz.Codes4, levels: ctx.qlevels}
		res = searchFilteredCtx(ctx, flatAdj{g: f}, f.Nodes, dist, ctx.startBuf[:], l, l, counter, d, flt, pf)
	} else {
		ctx.qlevels = qz.Q.PrepareInto(ctx.qlevels[:0], query)
		dist := codeDist{q: &qz.Q, codes: qz.Codes, levels: ctx.qlevels}
		res = searchFilteredCtx(ctx, flatAdj{g: f}, f.Nodes, dist, ctx.startBuf[:], l, l, counter, d, flt, pf)
	}
	res.Neighbors = rerankPool(ctx, x.Base, query, k, counter, d, res.Neighbors)
	return res
}

// withDead over-fetches a bound by the tombstone count (the unfiltered
// degradation path of SearchFilteredWithHopsCtx).
func withDead(v int, dead *Tombstones) int {
	if dead != nil {
		v += dead.Len()
	}
	return v
}

// SearchLiveFilteredCtx is the filtered twin of SearchLiveCtx: the two-pool
// walk over the frozen snapshot with the pending-insert delta merged through
// the delta bitmap, tombstones folded into the pass test (so no over-fetch),
// and the same exact-rerank and id-translation tail as the unfiltered path.
// The effective remap into Bits' id space is lq.Translate (a sharded live
// handle's local→global table); flt.Remap is used when lq.Translate is nil.
func (s *Snapshot) SearchLiveFilteredCtx(ctx *SearchContext, query []float32, k, l int, counter *vecmath.Counter, lq LiveQuery, flt *Filter) SearchResult {
	if flt == nil {
		return s.SearchLiveCtx(ctx, query, k, l, counter, lq)
	}
	if flt.Count == 0 {
		return emptyResult(ctx)
	}
	if l < k {
		l = k
	}
	d := lq.Delta
	if d != nil && d.Total == 0 {
		d = nil
	}
	dead := lq.Dead
	if dead != nil && dead.Len() == 0 {
		dead = nil
	}
	remap := lq.Translate
	if remap == nil {
		remap = flt.Remap
	}
	pf := passFilter{bits: flt.Bits, pubIDs: s.pubIDs, remap: remap, dead: dead}
	var res SearchResult
	switch {
	case useBruteForce(l, flt):
		res = bruteForceFiltered(ctx, s.base, query, s.base.Rows, k, counter, d, flt, pf)
	case s.quant != nil:
		res = s.searchQuantDeltaFiltered(ctx, query, k, l, counter, d, flt, pf)
	default:
		ctx.startBuf[0] = s.nav
		res = searchFilteredCtx(ctx, flatAdj{g: s.flat}, s.base.Rows, floatDist{base: s.base, query: query}, ctx.startBuf[:], k, l, counter, d, flt, pf)
	}
	res.Neighbors = s.finishLive(res.Neighbors, k, lq, d)
	return res
}

// searchQuantDeltaFiltered is searchQuantDelta with the two-pool walk and
// the filtered delta merge; the full main pool survives to the exact rerank.
func (s *Snapshot) searchQuantDeltaFiltered(ctx *SearchContext, query []float32, k, l int, counter *vecmath.Counter, d *Delta, flt *Filter, pf passFilter) SearchResult {
	qz := s.quant
	ctx.startBuf[0] = s.nav
	var res SearchResult
	if qz.Mode == quant.ModeInt4 {
		ctx.qlevels = qz.Q4.PrepareInto(ctx.qlevels[:0], query)
		dist := code4Dist{q: &qz.Q4, codes: qz.Codes4, levels: ctx.qlevels}
		res = searchFilteredCtx(ctx, flatAdj{g: s.flat}, s.base.Rows, dist, ctx.startBuf[:], l, l, counter, d, flt, pf)
	} else {
		ctx.qlevels = qz.Q.PrepareInto(ctx.qlevels[:0], query)
		dist := codeDist{q: &qz.Q, codes: qz.Codes, levels: ctx.qlevels}
		res = searchFilteredCtx(ctx, flatAdj{g: s.flat}, s.base.Rows, dist, ctx.startBuf[:], l, l, counter, d, flt, pf)
	}
	res.Neighbors = rerankPool(ctx, s.base, query, k, counter, d, res.Neighbors)
	return res
}
