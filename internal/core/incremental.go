package core

import (
	"fmt"
	"slices"
)

// This file implements incremental insertion — the future work the paper's
// Section 5 sketches ("It's also possible for NSG to enable incremental
// indexing"). The approach mirrors what Algorithm 2 does for a single node:
//
//  1. Search the current NSG for the new point from the navigating node
//     with a build-sized pool, collecting every visited node (the same
//     search-collect step the batch build uses).
//  2. Select the new node's out-edges from those candidates with the MRNG
//     edge rule, capped at M.
//  3. Offer the reverse edge to every selected neighbor (the InterInsert
//     step), re-pruning any neighbor that overflows the cap.
//
// Reachability from the navigating node is preserved by construction: step
// 3 links at least one existing node to the new one, because step 2 always
// selects at least the nearest candidate and the reverse offer to it either
// fits under the cap or survives its re-prune only if occluded — in that
// rare case we force a link from the nearest selected neighbor. Deletion is
// handled by tombstoning: removed ids stay in the graph as waypoints but are
// filtered from results until the public Index.Compact rebuilds without them.

// InsertParams controls incremental insertion. Zero values fall back to the
// index's build-time M and a pool of 3*M.
type InsertParams struct {
	L int // search-collect pool size
	M int // degree cap for the new node and overflow re-prunes
}

// Insert adds vec to the index and returns its id. The base matrix is
// grown; the caller's slice is copied. The graph's rows are edited as
// adjacency lists (see NSG.edit), the way HNSW rewrites capped neighbor
// lists, and laid out as CSR by the next Snapshot or search. Not safe for
// concurrent use with Search, nor is the first search after it, which does
// that layout, safe beside another search.
func (x *NSG) Insert(vec []float32, p InsertParams) (int32, error) {
	if len(vec) != x.Base.Dim {
		return -1, fmt.Errorf("core: insert dim %d != index dim %d", len(vec), x.Base.Dim)
	}
	if p.M <= 0 {
		p.M = x.M
	}
	if p.L <= 0 {
		p.L = 3 * p.M
	}

	// Grow the base matrix. The new node is appended at the tail of both
	// the internal and public id spaces, so the remap tables extend with an
	// identity entry; on a quantized index the vector is encoded with the
	// trained grid (scales are never retrained here).
	id := int32(x.Base.Rows)
	x.Base.Data = append(x.Base.Data, vec...)
	x.Base.Rows++
	x.PubIDs = append(x.PubIDs, id)
	x.toInternal = append(x.toInternal, id)
	if x.Quant != nil {
		x.Quant.Q.AppendEncoded(&x.Quant.Codes, vec)
		x.Quant.raiseRho(nil, vec, int(id))
	}

	// Step 1: search-collect from the navigating node over the id nodes
	// already in the graph, with pooled scratch.
	ctx := getCtx()
	visited := ctx.collect[:0]
	ctx.startBuf[0] = x.Navigating
	rows := x.edit()
	SearchOnGraphListCtx(ctx, rows, x.Base, vec, ctx.startBuf[:], 1, p.L, nil, &visited)
	cands := dedupeSortedCtx(ctx, int(id)+1, visited, id)

	// Step 2: MRNG-select the new node's out-edges.
	sel := SelectMRNGInto(x.Base, vec, cands, p.M, ctx, ctx.idBuf[:0])
	ctx.idBuf = sel[:0]
	selected := append(make([]int32, 0, len(sel)), sel...)
	if len(selected) == 0 && id > 0 {
		// Degenerate pool (e.g. all candidates identical): link the nearest
		// visited node directly so the node is not isolated.
		if len(cands) > 0 {
			selected = []int32{cands[0].ID}
		} else {
			selected = []int32{x.Navigating}
		}
	}
	// cands aliases ctx's scratch; nothing below reads it, so the context
	// can go back to the pool.
	ctx.collect = visited[:0]
	putCtx(ctx)
	x.lists = append(rows, selected)

	// Step 3: reverse offers with overflow re-prune, keeping the new node
	// reachable.
	linked := false
	for _, nb := range selected {
		if x.offerReverse(nb, id, p.M) {
			linked = true
		}
	}
	if !linked && len(selected) > 0 {
		// Every reverse offer was pruned away: force the nearest selected
		// neighbor to keep the link so the DFS-tree invariant holds. One
		// node may exceed the cap by one edge, matching the slack the DFS
		// repair pass is allowed in batch builds.
		nb := selected[0]
		if !slices.Contains(x.lists[nb], id) {
			x.lists[nb] = append(x.lists[nb], id)
		}
	}
	return id, nil
}

// ReleaseMapped hands a mapped record's pages back to the kernel. Call it
// after an Insert, which leaves every slab a heap copy (see mapped.go), and
// once the snapshot that reads the copies is published: a search that
// loaded an older snapshot faults back only the pages it still reads. It
// is a no-op on a heap index and after the first call.
func (x *NSG) ReleaseMapped() {
	if x.release != nil {
		x.release()
		x.release = nil
	}
}

// offerReverse adds the edge from→to to the edited rows if absent:
// appended while from's row is under the cap m, else from's row plus the
// new edge is scored in scratch, re-pruned with the MRNG rule and the
// survivors written over the row.
// Reports whether from→to survived. All scratch (distance buffer, candidate
// list, dedupe stamps, selection buffers) is drawn from a pooled context.
func (x *NSG) offerReverse(from, to int32, m int) bool {
	row := x.lists[from]
	if slices.Contains(row, to) {
		return true
	}
	if len(row) < m {
		x.lists[from] = append(row, to)
		return true
	}
	ctx := getCtx()
	v := x.Base.Row(int(from))
	ctx.idBuf = append(append(ctx.idBuf[:0], row...), to)
	cands := ctx.appendScored(x.Base, v, ctx.idBuf, ctx.collect[:0])
	cands = dedupeSortedCtx(ctx, x.Base.Rows, cands, from)
	sel := SelectMRNGInto(x.Base, v, cands, m, ctx, ctx.idBuf[:0])
	ctx.idBuf = sel[:0]
	x.lists[from] = append(row[:0], sel...)
	survived := slices.Contains(sel, to)
	ctx.collect = cands[:0]
	putCtx(ctx)
	return survived
}

// Tombstones tracks deleted ids for an NSG. Deleted nodes keep routing
// traffic (removing them would sever monotonic paths) but never appear in
// results: the set is a term of the search's pass test (see passFilter). It
// is a flat bitmap in Filter.Bits' layout — bit id&63 of word id>>6 — plus
// a count, so the test is one word read and a copy is n/8 bytes. A nil set
// is empty.
type Tombstones struct {
	bits []uint64
	n    int
}

// NewTombstones returns an empty deletion set.
func NewTombstones() *Tombstones { return &Tombstones{} }

// Delete marks id as removed, growing the bitmap to cover it. Callers
// range-check id against their index first: a negative id panics and a
// stray large one sizes the allocation.
func (t *Tombstones) Delete(id int32) {
	w := int(id) >> 6
	if w >= len(t.bits) {
		t.bits = append(t.bits, make([]uint64, w+1-len(t.bits))...)
	}
	if m := uint64(1) << uint(id&63); t.bits[w]&m == 0 {
		t.bits[w] |= m
		t.n++
	}
}

// Deleted reports whether id is tombstoned; ids the bitmap does not cover
// (negative, or past the last deleted id) are not.
func (t *Tombstones) Deleted(id int32) bool {
	return t != nil && bitTest(t.bits, id)
}

// Len returns the number of tombstoned ids.
func (t *Tombstones) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Clone returns an independent copy of the deletion set. The live-update
// path publishes tombstones copy-on-write: searches read a frozen set from
// the current view while deletes build and publish a fresh copy, so the
// read path never takes a lock and a published set is never mutated. A nil
// receiver clones to an empty set.
func (t *Tombstones) Clone() *Tombstones {
	if t == nil {
		return NewTombstones()
	}
	return &Tombstones{bits: append([]uint64(nil), t.bits...), n: t.n}
}
