package nsg

import (
	"fmt"

	"repro/internal/vecmath"
)

// This file exposes incremental maintenance — the paper's Section 5 future
// work — on the public index: Add grows the index one vector at a time,
// Delete tombstones ids, and Compact rebuilds without the deleted points.

// Add inserts a vector and returns its new id. The vector is copied and,
// on a sharded index, routed to the shard whose navigating node (its
// approximate medoid) is nearest. Add is non-blocking and safe from any
// goroutine, concurrently with Search: it appends to that shard's delta
// buffer, the point is searchable (with exact distances) the moment Add
// returns, and the shard's background maintainer folds it into the graph
// off the query path.
func (x *Index) Add(vec []float32) (int32, error) {
	if len(vec) != x.Dim() {
		return -1, fmt.Errorf("nsg: vector dim %d != index dim %d", len(vec), x.Dim())
	}
	if !vecmath.Finite(vec) {
		return -1, ErrNonFinite
	}
	id, _, err := x.s.Insert(vec)
	return id, err
}

// Delete tombstones an id: it stops appearing in results immediately but
// keeps routing searches until Compact — it costs one bit and no pool slot,
// so searches over a tombstoned index do the work of a search over a clean
// one. Deleting an already-deleted or out-of-range id is an error. Safe
// from any goroutine, concurrently with Search and Add.
func (x *Index) Delete(id int32) error { return x.s.Delete(id) }

// Deleted reports whether id has been tombstoned.
func (x *Index) Deleted(id int32) bool { return x.s.Deleted(id) }

// DeletedCount returns the number of tombstoned ids awaiting Compact.
func (x *Index) DeletedCount() int { return x.s.DeadCount() }

// Compact rebuilds the index without its tombstoned points. It returns the
// mapping from old ids to new ids (-1 for deleted); survivors keep their
// order, and the receiving index is replaced in place. The rebuild is a
// build over the survivors with this index's options and shard count, so
// BuildStats then describe it; metadata rows and the live-update cadence
// carry over. Compact flushes pending Adds first and must not run
// concurrently with other calls on the index. With nothing deleted it
// returns the identity and keeps the index. The replaced index is closed,
// which releases the mapping of one opened with OpenMapped.
func (x *Index) Compact() ([]int32, error) {
	fresh, remap, err := x.s.Compact(params(x.opts, x.s.Shards()))
	if err != nil {
		return nil, err
	}
	if old := x.s; fresh != old {
		x.s = fresh
		old.Close()
	}
	return remap, nil
}
