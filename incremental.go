package nsg

import (
	"fmt"
	"math"

	"repro/internal/vecmath"
)

// This file exposes incremental maintenance — the paper's Section 5 future
// work — on the public index: Add grows the index one vector at a time,
// Delete tombstones ids, and Compact rebuilds without the deleted points.

// Add inserts a vector and returns its new id. The vector is copied (in
// the metric's space: see Metric and ErrNormExceedsRadius) and, on a
// sharded index, routed to the shard whose navigating node (its
// approximate medoid) is nearest: random partitions give near-identical
// medoids, so routing by medoid approximates routing by load while keeping
// locality for clustered data. Add is non-blocking and safe from any
// goroutine, concurrently with Search: it appends to that shard's delta
// buffer, the point is searchable (with exact distances) the moment Add
// returns, and the shard's background maintainer folds it into the graph
// off the query path.
func (x *Index) Add(vec []float32) (int32, error) {
	s := x.s
	if len(vec) != x.Dim() {
		return -1, fmt.Errorf("nsg: vector dim %d != index dim %d", len(vec), x.Dim())
	}
	if !vecmath.Finite(vec) {
		return -1, ErrNonFinite
	}
	vec, err := s.indexRow(x.opts.Metric, vec)
	if err != nil {
		return -1, err
	}
	sh, bestD := 0, float32(math.Inf(1))
	for i, nav := range s.navVec {
		if d := vecmath.L2(vec, nav); d < bestD {
			sh, bestD = i, d
		}
	}
	// Global id allocation, the shard append and the locator entry serialize
	// on one mutex, so a global id below Len always locates its row.
	s.mu.Lock()
	defer s.mu.Unlock()
	gid := int32(len(s.loc))
	local, err := s.handles[sh].Append(vec, gid)
	if err != nil {
		return -1, err
	}
	s.loc = append(s.loc, slot{int32(sh), local})
	s.n.Store(int64(len(s.loc)))
	return gid, nil
}

// locate returns the shard and local id of global id, or false when id is
// out of range. Safe concurrently with Add.
func (s *sharded) locate(id int) (slot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.loc) {
		return slot{}, false
	}
	return s.loc[id], true
}

// Delete tombstones an id in its shard, under the shard's own id for it:
// it stops appearing in results immediately but keeps routing searches
// until Compact — it costs one bit and no pool slot, so searches over a
// tombstoned index do the work of a search over a clean one. Deleting an
// already-deleted or out-of-range id is an error. Safe from any goroutine,
// concurrently with Search and Add.
func (x *Index) Delete(id int32) error {
	l, ok := x.s.locate(int(id))
	if !ok {
		return fmt.Errorf("nsg: id %d out of range [0,%d)", id, x.Len())
	}
	if err := x.s.handles[l.shard].Delete(l.local); err != nil {
		return fmt.Errorf("nsg: delete %d: %w", id, err)
	}
	return nil
}

// Deleted reports whether id has been tombstoned.
func (x *Index) Deleted(id int32) bool {
	l, ok := x.s.locate(int(id))
	return ok && x.s.handles[l.shard].Deleted(l.local)
}

// DeletedCount returns the number of tombstoned ids awaiting Compact.
func (x *Index) DeletedCount() int {
	n := 0
	for _, h := range x.s.handles {
		n += h.DeadCount()
	}
	return n
}

// Compact rebuilds the index without its tombstoned points. It returns the
// mapping from old ids to new ids (-1 for deleted); survivors keep their
// order, and the receiving index is replaced in place. The rebuild is a
// build over the survivors' stored rows in id order with this index's
// options and shard count, so BuildStats then describe it; the rows are
// already in the metric's space and are not mapped again. Metadata rows
// (by meta's Select) and the live-update cadence carry over. Compact
// flushes pending Adds first and must not run concurrently with other
// calls on the index. With nothing deleted it returns the identity and
// keeps the index. The replaced shard set is closed, which releases the
// mapping of an index opened with OpenMapped.
func (x *Index) Compact() ([]int32, error) {
	x.Flush()
	old, rows, dim := x.s, x.Len(), x.s.dim
	remap := make([]int32, rows)
	dead := x.DeletedCount()
	if dead == 0 {
		for i := range remap {
			remap[i] = int32(i)
		}
		return remap, nil
	}
	data := make([]float32, 0, (rows-dead)*dim)
	for id := range remap {
		if x.Deleted(int32(id)) {
			remap[id] = -1
			continue
		}
		remap[id] = int32(len(data) / dim)
		data = append(data, x.row(id)...)
	}
	fresh, err := buildShards(vecmath.Matrix{Data: data, Rows: len(data) / dim, Dim: dim}, x.opts, len(old.shards))
	if err != nil {
		return nil, err
	}
	if m := old.meta; m != nil {
		// Rows the store never got (plain Adds) keep failing filters.
		fresh.meta = m.Select(remap[:min(len(remap), m.Rows())], rows-dead)
	}
	fresh.setLive(old.handles[0].Options())
	x.s = fresh
	old.close()
	return remap, nil
}
