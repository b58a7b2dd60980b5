package core

import (
	"errors"

	"repro/internal/vecmath"
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
// Tombstones are one more term of the same pass test: a deleted point is a
// non-passing point that still routes, so a delete costs one bit and no pool
// slot, with or without a predicate. With no predicate the navigation pool
// can only ever hold deleted rows, so it is sized by their count (see
// Snapshot.search) instead of by selectivity. The loop itself is walk, in
// core.go: the plain search is the same body with a pass test that admits
// everything.

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

// passFilter is the pass test of predicate and/or tombstone searches:
// internal id → public id (pubIDs) → liveness (dead) → final id (remap) →
// bitmap. Built once per search and passed by value, so the hot path costs
// one or two array reads per node.
type passFilter struct {
	all       bool     // no predicate: every live row passes, bitmaps unused
	bits      []uint64 // graph rows, indexed through remap
	deltaBits []uint64 // pending rows, indexed by final id
	pubIDs    []int32  // internal → public; nil = identity
	remap     []int32  // public → final bitmap id; nil = identity
	dead      *Tombstones
}

func (f passFilter) node(internal int32, _ float32) bool {
	id := internal
	if f.pubIDs != nil {
		id = f.pubIDs[internal]
	}
	if f.dead.Deleted(id) {
		return false
	}
	if f.all {
		return true
	}
	if f.remap != nil {
		id = f.remap[id]
	}
	return bitTest(f.bits, id)
}

// deltaRow tests a pending row: delta ids are final ids, so the tombstone
// set and the delta bitmap index directly — no remap.
func (f passFilter) deltaRow(id int32) bool {
	return !f.dead.Deleted(id) && (f.all || bitTest(f.deltaBits, id))
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

// bruteForceFiltered is the low-selectivity exact path: score every passing
// point (one batched float gather over the passing ids) plus every passing
// delta row, keep the best k. Always exact float32 distances regardless of
// quantization — at a few hundred candidates the code matrix saves nothing.
// Results are internal/delta ids, hops 0.
func bruteForceFiltered(ctx *SearchContext, base vecmath.Matrix, query []float32, k int, counter *vecmath.Counter, delta *Delta, pf passFilter) SearchResult {
	n := base.Rows
	ctx.begin(n, k)
	ids := ctx.idBuf[:0]
	for i := 0; i < n; i++ {
		if pf.node(int32(i), 0) {
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
		offerDelta(ctx, n, floatDist{base: base, query: query}, delta, counter, pf)
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

// SearchFilteredWithHopsCtx is the root of the non-live NSG query paths:
// Snapshot.search over the index's current state, with dead (tombstones,
// by public id) and flt (a compiled predicate) both optional — nil, nil is
// the plain search. Emitted ids are public, distances exact float32.
func (x *NSG) SearchFilteredWithHopsCtx(ctx *SearchContext, query []float32, k, l int, dead *Tombstones, flt *Filter, counter *vecmath.Counter) SearchResult {
	v := x.view()
	res := v.search(ctx, query, k, l, counter, nil, dead, flt, nil)
	x.toPublic(res.Neighbors)
	return res
}
