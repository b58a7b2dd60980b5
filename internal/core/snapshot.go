package core

import (
	"math"

	"repro/internal/graphutil"
	"repro/internal/vecmath"
	"repro/internal/vecmath/quant"
)

// This file is the read side of live updates: an immutable Snapshot of a
// built index that queries traverse without any lock, plus the Delta
// description of rows that were inserted after the snapshot was taken and
// are merged into every query's candidate pool by a brute-force scan. The
// write side (the append-only buffer, the background maintainer that drains
// it through the incremental-insert path and publishes fresh snapshots)
// lives in internal/live; this file only defines what a frozen view is and
// how Algorithm 1 searches one.
//
// A Snapshot captures the CSR graph pointer and the slice headers of the
// base matrix, code matrix and id-remap tables at a moment when all of them
// describe the same n rows. A CSR is never written once laid out, and later
// mutations through NSG.Insert only append vector, code and id rows
// (indexes >= n), swap the NSG's own headers, or edit adjacency lists
// unpacked from a copy of the edge slab (see NSG.edit), which the next
// Snapshot lays out as a fresh CSR. The rows a snapshot can reach are
// never rewritten, so any number of readers may traverse a snapshot while
// the maintainer grows the index.

// Snapshot is an immutable, lock-free serving view of an NSG: the frozen
// CSR adjacency, the first n rows of the base (and, when
// quantized, code) matrix, and the id-remap tables. Create one with
// NSG.Snapshot; search it from any number of goroutines with per-goroutine
// contexts.
type Snapshot struct {
	flat   *graphutil.CSR
	nav    int32
	base   vecmath.Matrix
	quant  *Quantized // value copy; nil when the index is not quantized
	pubIDs []int32    // internal -> public translation
	toInt  []int32    // public -> internal
}

// view is the index's current state as a transient Snapshot value: what
// every heap and mapped search reads, sharing the quantizer instead of
// copying it. Rows Inserts left are laid out first. Valid only until the
// next mutation.
func (x *NSG) view() Snapshot {
	return Snapshot{
		flat:   x.FlatView(),
		nav:    x.Navigating,
		base:   x.Base,
		quant:  x.Quant,
		pubIDs: x.PubIDs,
		toInt:  x.toInternal,
	}
}

// Snapshot freezes the index's current state into an immutable serving
// view, laying out the rows Inserts edited since the last one as a fresh
// CSR. Must not be called concurrently with mutations (the live maintainer
// is the only caller while a handle is running); the returned snapshot
// itself is then safe to search concurrently with further mutations.
func (x *NSG) Snapshot() *Snapshot {
	s := x.view()
	if s.quant != nil {
		q := *s.quant
		s.quant = &q
	}
	return &s
}

// Rows returns the number of points the snapshot serves.
func (s *Snapshot) Rows() int { return s.base.Rows }

// Vector returns the stored vector with the given public id.
func (s *Snapshot) Vector(id int32) []float32 {
	return s.base.Row(int(s.toInt[id]))
}

// Stats computes degree and memory statistics from the frozen graph,
// so a live index can report them without touching the maintainer's graph.
// Reachable equals N: snapshots are published only for graphs whose
// construction (Algorithm 2 repair) or insertion path (forced reverse link)
// guarantees reachability from the navigating node.
func (s *Snapshot) Stats() IndexStats {
	st := flatStats(s.flat)
	st.Reachable = st.N
	return st
}

// Delta is the set of pending inserts one query scans, one contiguous
// region: float rows (always), SQ8 code rows (on a quantized index; zero
// otherwise), the final id of every row, and the identity sequence
// 0..Rows() the batched gather kernels scan with. Row j is offered to the
// pool as candidate n + j, which is also the public id it takes once
// drained and the id the pass test checks it by. The zero value means
// nothing is pending.
type Delta struct {
	Vecs  vecmath.Matrix
	Codes quant.CodeMatrix
	IDs   []int32
	Seq   []int32
}

// Rows returns the number of pending rows.
func (d *Delta) Rows() int { return len(d.IDs) }

// Query is one search's plan: everything that varies between the heap,
// mapped, live, filtered, sharded and quantized paths, passed by value to
// the one entry point, Snapshot.Query. Only K and L are required; every
// other field's zero value means "not in play".
type Query struct {
	// K is the number of results and L the candidate pool size (the
	// paper's l). K <= 0 answers nothing, and so does a query with a NaN or
	// infinite coordinate; L < K is raised to K.
	K, L int
	// Dead is the tombstone set, a term of the pass test: a deleted row
	// still routes but never holds a result slot. Like Filter.Bits it is
	// keyed by the snapshot's public ids (after the relayout remap, before
	// Translate), and a pending delta row by the public id it drains to.
	Dead *Tombstones
	// Filter, when non-nil, admits only rows whose bit is set; see Filter
	// for the id space its bitmap is keyed by.
	Filter *Filter
	// Delta holds the inserts not yet in the snapshot; nil or empty means
	// the query serves from the snapshot alone.
	Delta *Delta
	// Translate maps snapshot-local result ids into the caller's id space
	// (a sharded index's global ids); nil is identity. Delta ids are
	// already final and pass through untranslated. It is applied only when
	// results are emitted: the pass test never sees a final id.
	Translate []int32
	// Counter, when non-nil, counts every distance evaluation.
	Counter *vecmath.Counter
	// NoRerank emits a quantized walk's code-space distances instead of
	// reranking its pool exactly — the ablation cmd/bench -exp quant uses to
	// price the rerank. Every serving path leaves it false.
	NoRerank bool
}

// Query answers one query over the snapshot: the root of every query path,
// heap, mapped and live. It picks the pass test and the plan, runs the one
// walk, and returns the nearest q.K passing live rows in final ids —
// snapshot rows through the relayout remap and then q.Translate, delta rows
// from Delta.IDs — with exact float32 distances (unless q.NoRerank).
//
//   - Nothing deleted, no predicate: passAll, no navigation pool — the
//     paper's Algorithm 1.
//   - Tombstones only: the navigation pool is sized by the tombstone count.
//     It can only ever hold deleted rows, and one is expanded only while it
//     could still improve the main pool, so the capacity costs nothing until
//     it is needed and a wholly deleted neighbourhood cannot wall the walk
//     off from the live points behind it.
//   - A predicate: planFiltered takes the cheaper, by predicted cost, of an
//     exact scan of the passing rows and the walk, whose pool it also sizes.
//
// All scratch lives in ctx, so a warm context performs zero heap
// allocations; the returned Neighbors slice aliases ctx and is valid until
// its next search.
func (s *Snapshot) Query(ctx *SearchContext, vec []float32, q Query) SearchResult {
	if q.K <= 0 || !vecmath.Finite(vec) {
		return emptyResult(ctx)
	}
	q.L = max(q.L, q.K)
	if q.Delta != nil && q.Delta.Rows() == 0 {
		q.Delta = nil
	}
	pf := passFilter{all: q.Filter == nil, pubIDs: s.pubIDs, dead: q.Dead}
	var res SearchResult
	switch {
	case q.Filter == nil && q.Dead.Len() == 0:
		res = searchView(ctx, s, vec, q, 0, passAll{})
	case q.Filter == nil:
		res = searchView(ctx, s, vec, q, q.Dead.Len(), pf)
	case q.Filter.Count == 0:
		return emptyResult(ctx)
	default:
		pf.bits = q.Filter.Bits
		scan, lnav := planFiltered(s.base.Rows, q.L, s.flat.MaxDegree(), q.Filter.Count, q.Dead.Len())
		if scan {
			res = scanFiltered(ctx, s, vec, q.K, q.Counter, q.Delta, pf)
		} else {
			res = searchView(ctx, s, vec, q, lnav, pf)
		}
	}
	// Internal ids to final ids, in place.
	n := int32(s.base.Rows)
	for i := range res.Neighbors {
		nb := &res.Neighbors[i]
		if nb.ID >= n {
			nb.ID = q.Delta.IDs[nb.ID-n]
			continue
		}
		nb.ID = s.pubIDs[nb.ID]
		if q.Translate != nil {
			nb.ID = q.Translate[nb.ID]
		}
	}
	return res
}

// searchView runs the walk in the view's distance space. On a quantized
// view that is SQ8 code space keeping the whole main pool, followed —
// unless q.NoRerank, the ablation hook — by one exact rerank of every
// survivor the error bound cannot rule out of the top k, so emitted
// distances are exact and a true neighbor misranked by
// quantization still reaches the top k.
func searchView[P passTest](ctx *SearchContext, s *Snapshot, vec []float32, q Query, lnav int, pf P) SearchResult {
	a, n := flatAdj{g: s.flat}, s.base.Rows
	ctx.startBuf[0] = s.nav
	qz := s.quant
	if qz == nil {
		return walk(ctx, a, n, floatDist{base: s.base, query: vec}, ctx.startBuf[:], q.K, q.L, lnav, q.Counter, q.Delta, pf)
	}
	fetch := q.L
	if q.NoRerank {
		fetch = q.K
	}
	ctx.qlevels = qz.Q.PrepareInto(ctx.qlevels[:0], vec)
	dist := codeDist{q: &qz.Q, codes: qz.Codes, levels: ctx.qlevels}
	res := walk(ctx, a, n, dist, ctx.startBuf[:], fetch, q.L, lnav, q.Counter, q.Delta, pf)
	if !q.NoRerank {
		thr := math.Inf(1)
		if b, ok := qz.bound(vec, ctx.qlevels); ok {
			thr = rerankThreshold(b, res.Neighbors, int32(n), q.K)
		}
		res.Neighbors = rerankPool(ctx, s.base, vec, q.K, q.Counter, q.Delta, res.Neighbors, thr)
	}
	return res
}

// rerankThreshold is the code distance above which no snapshot row of pool
// (ascending by code distance) can reach the top k: b's threshold at the
// k-th snapshot row. Delta rows (ids >= n) do not count, as ρ does not
// cover their codes; with fewer than k snapshot rows it is +Inf.
func rerankThreshold(b codeBound, pool []vecmath.Neighbor, n int32, k int) float64 {
	for _, nb := range pool {
		if nb.ID < n {
			if k--; k == 0 {
				return b.threshold(nb.Dist)
			}
		}
	}
	return math.Inf(1)
}

// rerankPool rescores the pool's survivors with exact float32 distances —
// snapshot rows whose code distance is at most thr through one batched
// gather, every delta row from the delta's float rows — then re-sorts and
// truncates to fetch. The rows thr drops cannot reach the top fetch (see
// codeBound), so the result is that of rescoring the whole pool. in must
// alias ctx.out (an emit result): the output is rebuilt in place, entry i
// read before slot i is rewritten (d == nil when no delta is pending).
func rerankPool(ctx *SearchContext, base vecmath.Matrix, query []float32, fetch int, counter *vecmath.Counter, d *Delta, in []vecmath.Neighbor, thr float64) []vecmath.Neighbor {
	n := int32(base.Rows)
	ids := ctx.idBuf[:0]
	for _, nb := range in {
		if nb.ID < n && float64(nb.Dist) <= thr {
			ids = append(ids, nb.ID)
		}
	}
	ctx.idBuf = ids
	dists := ctx.distScratch(len(ids))
	counter.L2ToRows(base, query, ids, dists)
	out := ctx.out[:0]
	bi := 0
	for i := range in {
		nb := in[i]
		switch {
		case nb.ID >= n:
			nb.Dist = counter.L2(query, d.Vecs.Row(int(nb.ID-n)))
		case float64(nb.Dist) <= thr:
			nb.Dist = dists[bi]
			bi++
		default:
			continue
		}
		out = append(out, nb)
	}
	sortNeighbors(ctx, out)
	if len(out) > fetch {
		out = out[:fetch]
	}
	ctx.out = out
	return out
}
