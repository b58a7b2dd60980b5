package nsg

import (
	"fmt"

	"repro/internal/vecmath"
)

// This file exposes incremental maintenance — the paper's Section 5 future
// work — on the public index: Add grows the index one vector at a time,
// Delete tombstones ids, and Compact rebuilds without the deleted points.

// Add inserts a vector into the index and returns its id. The vector is
// copied. Add is non-blocking and safe from any goroutine, concurrently
// with Search: it appends to the delta buffer, the point is searchable
// (with exact distances) the moment Add returns, and the background
// maintainer folds it into the graph off the query path.
func (x *Index) Add(vec []float32) (int32, error) {
	if len(vec) != x.Dim() {
		return -1, fmt.Errorf("nsg: vector dim %d != index dim %d", len(vec), x.Dim())
	}
	if !vecmath.Finite(vec) {
		return -1, ErrNonFinite
	}
	return x.h.Append(vec)
}

// Delete tombstones an id: it stops appearing in results immediately but
// keeps routing searches until Compact — it costs one bit and no pool slot,
// so searches over a tombstoned index do the work of a search over a clean
// one. Deleting an already-deleted or out-of-range id is an error. Safe
// from any goroutine, concurrently with Search and Add.
func (x *Index) Delete(id int32) error { return x.h.Delete(id) }

// Deleted reports whether id has been tombstoned.
func (x *Index) Deleted(id int32) bool { return x.h.Deleted(id) }

// DeletedCount returns the number of tombstoned ids awaiting Compact.
func (x *Index) DeletedCount() int { return x.h.DeadCount() }

// Compact rebuilds the index without its tombstoned points. It returns the
// mapping from old ids to new ids (-1 for deleted); survivors keep their
// order, and the receiving index is replaced in place. The rebuild is a
// Build over the survivors with this index's options, so BuildStats then
// describe it. Compact flushes pending Adds first and must not run
// concurrently with other calls on the index. With nothing deleted it
// returns the identity and keeps the index; a mapped index with deleted
// points returns ErrReadOnly.
func (x *Index) Compact() ([]int32, error) {
	x.h.Close()
	dead := x.h.Dead()
	rows := x.inner.Base.Rows
	remap := make([]int32, rows)
	if dead.Len() == 0 {
		for i := range remap {
			remap[i] = int32(i)
		}
		return remap, nil
	}
	if x.inner.ReadOnly() {
		return nil, ErrReadOnly
	}
	dim := x.inner.Base.Dim
	data := make([]float32, 0, (rows-dead.Len())*dim)
	for id := int32(0); id < int32(rows); id++ {
		if dead.Deleted(id) {
			remap[id] = -1
			continue
		}
		remap[id] = int32(len(data) / dim)
		data = append(data, x.inner.VectorByID(id)...)
	}
	fresh, err := BuildFromFlat(data, dim, x.opts)
	if err != nil {
		return nil, err
	}
	if m := x.inner.Meta; m != nil {
		// Carry surviving metadata rows into the new id space. Rows the
		// store never got (plain Adds) keep failing filters, as before.
		clipped := remap
		if len(clipped) > m.Rows() {
			clipped = clipped[:m.Rows()]
		}
		fresh.inner.Meta = m.Select(clipped, fresh.inner.Base.Rows)
	}
	fresh.h.SetOptions(x.h.Options())
	x.inner, x.h, x.build = fresh.inner, fresh.h, fresh.build
	return remap, nil
}
