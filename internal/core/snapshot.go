package core

import (
	"slices"

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
// Immutability is structural, not copied: a Snapshot captures the flat
// adjacency pointer and the slice headers of the base matrix, code matrix
// and id-remap table at a moment when all of them describe the same n rows.
// Later mutations through NSG.Insert only append rows (indexes >= n), swap
// the NSG's own headers, or rebuild the flat layout into a fresh array —
// the rows a snapshot can reach are never rewritten, so any number of
// readers may traverse a snapshot while the maintainer grows the index.

// Snapshot is an immutable, lock-free serving view of an NSG: the frozen
// fixed-stride adjacency, the first n rows of the base (and, when
// quantized, code) matrix, and the id-remap table if a relayout permuted
// the graph. Create one with NSG.Snapshot; search it from any number of
// goroutines with per-goroutine contexts.
type Snapshot struct {
	flat   *graphutil.FlatGraph
	nav    int32
	base   vecmath.Matrix
	quant  *Quantized // value copy; nil when the index is not quantized
	pubIDs []int32    // internal -> public translation; nil = identity
	toInt  []int32    // public -> internal; nil = identity
}

// Snapshot freezes the index's current state into an immutable serving
// view. Must not be called concurrently with mutations (the live maintainer
// is the only caller while a handle is running); the returned snapshot
// itself is then safe to search concurrently with further mutations.
func (x *NSG) Snapshot() *Snapshot {
	s := &Snapshot{
		flat:   x.FlatView(),
		nav:    x.Navigating,
		base:   x.Base,
		pubIDs: x.PubIDs,
		toInt:  x.toInternal,
	}
	if x.Quant != nil {
		q := *x.Quant
		s.quant = &q
	}
	return s
}

// Rows returns the number of points the snapshot serves.
func (s *Snapshot) Rows() int { return s.base.Rows }

// Vector returns the stored vector with the given public id.
func (s *Snapshot) Vector(id int32) []float32 {
	if s.toInt != nil {
		id = s.toInt[id]
	}
	return s.base.Row(int(id))
}

// Stats computes degree and memory statistics from the frozen flat layout,
// so a live index can report them without touching the maintainer-private
// ragged graph. Reachable equals N: snapshots are published only for
// graphs whose construction (Algorithm 2 repair) or insertion path
// (forced reverse link) guarantees reachability from the navigating node.
func (s *Snapshot) Stats() IndexStats {
	f := s.flat
	var sum int64
	maxd := 0
	for i := 0; i < f.Nodes; i++ {
		d := f.Degree(int32(i))
		sum += int64(d)
		if d > maxd {
			maxd = d
		}
	}
	avg := 0.0
	if f.Nodes > 0 {
		avg = float64(sum) / float64(f.Nodes)
	}
	return IndexStats{
		N:          f.Nodes,
		AvgDegree:  avg,
		MaxDegree:  maxd,
		IndexBytes: f.Bytes(),
		Reachable:  f.Nodes,
	}
}

// DeltaChunk is one contiguous run of not-yet-drained inserts: float rows
// (always), code rows in the index's quantization scheme (Codes for SQ8,
// Codes4 for int4; the other stays zero), the final id of every row, and
// the identity sequence 0..Rows() the batched gather kernels scan with.
// Off is the chunk's starting offset in the query's delta id space: row j
// is offered to the pool as candidate n + Off + j.
type DeltaChunk struct {
	Vecs   vecmath.Matrix
	Codes  quant.CodeMatrix
	Codes4 quant.Code4Matrix
	IDs    []int32
	Seq    []int32
	Off    int
}

// Rows returns the number of pending rows in the chunk.
func (ch *DeltaChunk) Rows() int { return len(ch.IDs) }

// Delta is the set of pending inserts one query scans: chunks in ascending
// Off order with Total = sum of their rows. The zero value means nothing is
// pending. Callers reuse one Delta across queries (see Reset).
type Delta struct {
	Chunks []DeltaChunk
	Total  int
}

// Reset empties the delta for reuse, keeping the chunk slice's capacity.
func (d *Delta) Reset() {
	d.Chunks = d.Chunks[:0]
	d.Total = 0
}

// chunkAt locates the chunk holding delta offset off (0 <= off < Total).
func (d *Delta) chunkAt(off int) (*DeltaChunk, int) {
	for ci := range d.Chunks {
		ch := &d.Chunks[ci]
		if off < ch.Off+ch.Rows() {
			return ch, off - ch.Off
		}
	}
	panic("core: delta offset out of range")
}

// vec returns the float row at delta offset off.
func (d *Delta) vec(off int) []float32 {
	ch, j := d.chunkAt(off)
	return ch.Vecs.Row(j)
}

// id returns the final id of the row at delta offset off.
func (d *Delta) id(off int) int32 {
	ch, j := d.chunkAt(off)
	return ch.IDs[j]
}

// LiveQuery bundles the per-query live-update state a snapshot search
// consults: the pending-insert scan, the tombstone filter, and an optional
// final id translation.
type LiveQuery struct {
	// Delta holds the inserts not yet in the snapshot; nil or empty means
	// the query serves from the snapshot alone.
	Delta *Delta
	// Dead filters tombstoned points from results. It applies to snapshot
	// ids after the remap translation but before Translate, and to delta
	// ids as stored in the chunks; the search over-fetches by Dead.Len() so
	// k live results come back whenever the pool holds enough.
	Dead *Tombstones
	// Translate maps snapshot-local result ids into the caller's id space
	// (a sharded index's global ids); nil is identity. Delta chunk ids are
	// already final and pass through untranslated.
	Translate []int32
}

// SearchLiveCtx runs Algorithm 1 over the frozen snapshot, merges the
// pending-insert delta into the candidate pool, filters tombstones and
// returns the k nearest with exact float32 distances (the quantized path
// reranks graph and delta survivors together before emitting). All scratch
// lives in ctx, so a warm context performs zero heap allocations; the
// returned Neighbors slice aliases ctx and is valid until its next search.
func (s *Snapshot) SearchLiveCtx(ctx *SearchContext, query []float32, k, l int, counter *vecmath.Counter, lq LiveQuery) SearchResult {
	if l < k {
		l = k
	}
	fetch := k
	if lq.Dead != nil {
		fetch += lq.Dead.Len()
		if l < fetch {
			l = fetch
		}
	}
	d := lq.Delta
	if d != nil && d.Total == 0 {
		d = nil
	}
	var res SearchResult
	if s.quant != nil {
		res = s.searchQuantDelta(ctx, query, fetch, l, counter, d)
	} else {
		ctx.startBuf[0] = s.nav
		res = searchCtx(ctx, flatAdj{g: s.flat}, s.base.Rows, floatDist{base: s.base, query: query}, ctx.startBuf[:], fetch, l, counter, nil, d)
	}

	res.Neighbors = s.finishLive(res.Neighbors, k, lq, d)
	return res
}

// finishLive emits a live search's results: translate snapshot ids to final
// ids (remap, then the caller's Translate table), resolve delta ids from
// their chunks, drop tombstones, cap at k. The filter rewrites the result
// slice in place (entry i is read before slot w<=i is rewritten), so no
// scratch is needed.
func (s *Snapshot) finishLive(src []vecmath.Neighbor, k int, lq LiveQuery, d *Delta) []vecmath.Neighbor {
	n := int32(s.base.Rows)
	out := src[:0]
	for i := range src {
		nb := src[i]
		if nb.ID < n {
			id := nb.ID
			if s.pubIDs != nil {
				id = s.pubIDs[id]
			}
			if lq.Dead != nil && lq.Dead.Deleted(id) {
				continue
			}
			if lq.Translate != nil {
				id = lq.Translate[id]
			}
			nb.ID = id
		} else {
			id := d.id(int(nb.ID - n))
			if lq.Dead != nil && lq.Dead.Deleted(id) {
				continue
			}
			nb.ID = id
		}
		out = append(out, nb)
		if len(out) == k {
			break
		}
	}
	return out
}

// searchQuantDelta is the two-phase quantized search over a snapshot:
// code-space expansion (SQ8 or packed int4, per the snapshot's mode) with
// the delta merged into the pool, then one exact rerank of every survivor
// — base ids through a batched float gather, delta ids from their chunk's
// float rows — so emitted distances are exact either way. Results are in
// internal snapshot/delta id space.
func (s *Snapshot) searchQuantDelta(ctx *SearchContext, query []float32, fetch, l int, counter *vecmath.Counter, d *Delta) SearchResult {
	qz := s.quant
	ctx.startBuf[0] = s.nav
	// Keep the whole pool (k = l): the rerank reorders all l survivors so a
	// true neighbor misranked by quantization still reaches the top.
	var res SearchResult
	if qz.Mode == quant.ModeInt4 {
		ctx.qlevels = qz.Q4.PrepareInto(ctx.qlevels[:0], query)
		dist := code4Dist{q: &qz.Q4, codes: qz.Codes4, levels: ctx.qlevels}
		res = searchCtx(ctx, flatAdj{g: s.flat}, s.base.Rows, dist, ctx.startBuf[:], l, l, counter, nil, d)
	} else {
		ctx.qlevels = qz.Q.PrepareInto(ctx.qlevels[:0], query)
		dist := codeDist{q: &qz.Q, codes: qz.Codes, levels: ctx.qlevels}
		res = searchCtx(ctx, flatAdj{g: s.flat}, s.base.Rows, dist, ctx.startBuf[:], l, l, counter, nil, d)
	}
	res.Neighbors = rerankPool(ctx, s.base, query, fetch, counter, d, res.Neighbors)
	return res
}

// rerankPool rescores the pool's survivors with exact float32 distances —
// base ids through one batched gather, delta ids from their chunk's float
// rows — then re-sorts and truncates to fetch. in must alias ctx.out (an
// emit result): the output is rebuilt in place, entry i read before slot i
// is rewritten. Shared by every quantized tail, live and not (d == nil when
// no delta is pending).
func rerankPool(ctx *SearchContext, base vecmath.Matrix, query []float32, fetch int, counter *vecmath.Counter, d *Delta, in []vecmath.Neighbor) []vecmath.Neighbor {
	n := int32(base.Rows)
	ids := ctx.idBuf[:0]
	for _, nb := range in {
		if nb.ID < n {
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
		if nb.ID < n {
			nb.Dist = dists[bi]
			bi++
		} else {
			nb.Dist = counter.L2(query, d.vec(int(nb.ID-n)))
		}
		out = append(out, nb)
	}
	slices.SortFunc(out, vecmath.CompareNeighbors)
	if len(out) > fetch {
		out = out[:fetch]
	}
	ctx.out = out
	return out
}
