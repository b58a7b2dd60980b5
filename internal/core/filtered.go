package core

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/vecmath"
)

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
// a result slot. A navigation candidate is expanded only while it could
// still improve the main pool (nearer than the worst retained passing
// candidate, or the main pool not yet full) — the same termination bound
// Algorithm 1 applies to a single pool, so the filtered walk stops as soon
// as the passing frontier is settled.
//
// That walk is one of two plans. To settle the L nearest passing rows it
// settles everything between them, about L·n/pass rows however few pass,
// while scoring the passing set outright costs pass evaluations — so below
// a crossover that grows with sqrt(n·L) the scan is both cheaper and exact.
// planFiltered picks per query, and sizes the walk's navigation pool, from
// numbers the snapshot already holds. The scan is also the reference the
// recall gates compare against, so wherever it is chosen filtered search is
// exact by construction.
//
// Tombstones are one more term of the same pass test: a deleted point is a
// non-passing point that still routes, so a delete costs one bit and no pool
// slot, with or without a predicate. With no predicate the navigation pool
// can only ever hold deleted rows, so it is sized by their count (see
// Snapshot.Query) instead of by selectivity. The loop itself is walk, in
// core.go: the plain search is the same body with a pass test that admits
// everything.

// Filter is a compiled predicate the filtered search paths consume: one bit
// per id, set when the point passes. Callers build one with the public
// CompileFilter (backed by meta.Store.Compile) and may reuse it across
// queries and goroutines — a Filter is immutable once built.
type Filter struct {
	// Bits is the pass bitmap — bit id&63 of word id>>6 — indexed by the
	// snapshot's public id, before any Query.Translate; a pending delta row
	// is tested by the public id it drains to. Ids at or past the bitmap's
	// range fail closed.
	Bits []uint64
	// Count is the number of set bits over the id range this index serves;
	// planFiltered reads it as the passing-set size. Count == 0
	// short-circuits to an empty result.
	Count int
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
// internal id → public id (pubIDs) → liveness (dead) → bitmap, all in the
// snapshot's public ids. Built once per search and passed by value, so the
// hot path costs one or two array reads per node.
type passFilter struct {
	all    bool     // no predicate: every live row passes, bits unused
	bits   []uint64 // indexed by public id
	pubIDs []int32  // internal → public
	dead   *Tombstones
}

func (f passFilter) node(internal int32, _ float32) bool {
	id := f.pubIDs[internal]
	return !f.dead.Deleted(id) && (f.all || bitTest(f.bits, id))
}

// deltaRow tests a public id: a pending row's is the one it drains to.
func (f passFilter) deltaRow(id int32) bool {
	return !f.dead.Deleted(id) && (f.all || bitTest(f.bits, id))
}

// planFiltered picks the plan of one predicate search by predicted cost,
// from what the snapshot holds: n rows of which count pass the bitmap and
// dead are tombstoned, pool size l, and the flat graph's row stride deg (its
// maximum out-degree, read in O(1) where the mean would cost a pass over the
// graph). Costs are in scanned rows of the streamed float32 gather:
//
//   - The scan scores every live passing row once: pass = count·(n-dead)/n.
//   - The walk settles the l nearest live passing rows and every row lying
//     between them, ball = l·n/pass rows (at most all n), at about deg/2
//     each: a settled row has some deg/6 neighbors nobody scored before, and
//     scoring one costs about three scanned rows (a random gather, a visited
//     stamp, a sorted-pool insert). ARCHITECTURE.md, "Filtered plan", has
//     the sweep that measured both.
//
// It returns scan when the scan is no dearer, else the walk's navigation
// pool capacity: the ball's non-passing rows, never under l.
func planFiltered(n, l, deg, count, dead int) (scan bool, lnav int) {
	rows := int64(max(n, 1)) // 64-bit throughout: l·n overflows a 32-bit int
	pass := max(1, int64(count)*int64(n-dead)/rows)
	ball := min(int64(l)*rows/pass, rows)
	if pass <= ball*int64(deg)/2 {
		return true, 0
	}
	return false, max(l, int(ball)-l)
}

// rows appends the internal id of every graph row f admits among the first
// n, in public-id order. The bitmap is walked by word — tombstones masked
// off a word at a time, set bits pulled out with TrailingZeros64 and mapped
// through toInt (public → internal) — so the cost follows the passing set,
// not n.
func (f passFilter) rows(dst []int32, n int, toInt []int32) []int32 {
	var dead []uint64
	if f.dead != nil {
		dead = f.dead.bits
	}
	for wi, w := range f.bits[:min(len(f.bits), (n+63)>>6)] {
		if wi < len(dead) {
			w &^= dead[wi]
		}
		if rest := n - wi<<6; rest < 64 {
			w &= 1<<uint(rest) - 1 // bits past the last row are not ids
		}
		for ; w != 0; w &= w - 1 {
			dst = append(dst, toInt[wi<<6+bits.TrailingZeros64(w)])
		}
	}
	return dst
}

// scanFiltered is the exact plan: score every passing live row (one batched
// float gather over their ids) plus every passing delta row, keep the best
// k. Always exact float32 distances regardless of quantization, so nothing
// is reranked. On a quantized snapshot the codes decide first: one code
// gather over the passing rows, and only the rows under the error bound's
// threshold (see codeBound) are scored in float32 — the rows it drops cannot
// reach the top k, so the answer is the full float scan's. Results are
// internal/delta ids, hops 0.
func scanFiltered(ctx *SearchContext, s *Snapshot, query []float32, k int, counter *vecmath.Counter, delta *Delta, pf passFilter) SearchResult {
	n := s.base.Rows
	ctx.begin(n, k)
	ctx.idBuf = pf.rows(ctx.idBuf[:0], n, s.toInt)
	ids := ctx.idBuf
	if s.quant != nil && len(ids) > max(k, minCodeScan) {
		ids = codeScan(ctx, s.quant, query, ids, k, counter)
	}
	dists := ctx.distScratch(len(ids))
	counter.L2ToRows(s.base, query, ids, dists)
	p := &ctx.pool
	for i, id := range ids {
		p.insert(id, dists[i])
	}
	if delta != nil {
		offerDelta(ctx, n, floatDist{base: s.base, query: query}, delta, counter, pf)
	}
	return SearchResult{Neighbors: emit(ctx, k)}
}

// minCodeScan is the passing-row count above which the scan reads codes
// first (codeScan). The code pass costs about half a microsecond before its
// first row (preparing the query and its bound) and saves some 20 ns per
// row it keeps out of the float scan, so below ~40 rows the float scan
// alone is no dearer. On an 8 000 x 128 SQ8 base (2-vCPU host), float scan
// against code pass: 40 passing rows 3.4-4.0 us either way, 80 rows 5.5 ->
// 4.5 us, 160 rows 8.6 -> 5.1 us.
const minCodeScan = 48

// codeScan scores ids (more than k of them) in code space and keeps, in
// order, those whose code distance is within the error bound's threshold at
// the k-th smallest — all of them when the bound is unavailable. Order
// matters: the float scan then offers the kept rows to the pool in the
// full scan's order, and a dropped row is strictly farther than the k-th
// nearest, so neither the pool's tie rule nor its evictions see a
// difference.
func codeScan(ctx *SearchContext, qz *Quantized, query []float32, ids []int32, k int, counter *vecmath.Counter) []int32 {
	dists := ctx.distScratch(len(ids))
	ctx.qlevels = qz.Q.PrepareInto(ctx.qlevels[:0], query)
	qz.Q.L2ToRowsCount(counter, qz.Codes, ctx.qlevels, ids, dists)
	b, ok := qz.bound(query, ctx.qlevels)
	if !ok {
		return ids
	}
	thr := b.threshold(kthSmallest(ctx, dists, k))
	kept := ids[:0]
	for i, id := range ids {
		if float64(dists[i]) <= thr {
			kept = append(kept, id)
		}
	}
	return kept
}

// kthSmallest returns the k-th smallest of dists (more than k of them). It
// keeps the k smallest sorted, as float32 bits (for non-negative floats the
// bit order is the value order, as in pool), in ctx.keys: most of a long
// list is rejected by one compare against the k-th.
func kthSmallest(ctx *SearchContext, dists []float32, k int) float32 {
	top := ctx.keys[:0]
	for _, d := range dists[:k] {
		top = append(top, uint64(math.Float32bits(d)))
	}
	slices.Sort(top)
	for _, d := range dists[k:] {
		v := uint64(math.Float32bits(d))
		if v >= top[k-1] {
			continue
		}
		j := k - 1
		for ; j > 0 && top[j-1] > v; j-- {
			top[j] = top[j-1]
		}
		top[j] = v
	}
	ctx.keys = top
	return math.Float32frombits(uint32(top[k-1]))
}

// emptyResult resets ctx.out and returns an empty result — the K <= 0 and
// Count == 0 short-circuits, so a query that can match nothing costs no
// distance work.
func emptyResult(ctx *SearchContext) SearchResult {
	if ctx.out == nil {
		ctx.out = make([]vecmath.Neighbor, 0, 1)
	}
	ctx.out = ctx.out[:0]
	return SearchResult{Neighbors: ctx.out}
}
