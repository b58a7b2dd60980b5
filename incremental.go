package nsg

import (
	"fmt"

	"repro/internal/live"
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
// mapping from old ids to new ids (-1 for deleted); the receiving index is
// replaced in place. It flushes pending Adds first and must not run
// concurrently with other calls on the index.
func (x *Index) Compact() ([]int32, error) {
	x.h.Close()
	dead := x.h.Dead()
	if dead.Len() == 0 {
		remap := make([]int32, x.inner.Base.Rows)
		for i := range remap {
			remap[i] = int32(i)
		}
		return remap, nil
	}
	inner, remap, err := x.inner.Compact(dead, x.insertParams())
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
		inner.Meta = m.Select(clipped, inner.Base.Rows)
	}
	if x.opts.Quantize == QuantSQ8 {
		// The compacted graph is fresh: re-relayout and retrain the grid on
		// the surviving vectors so the quantized serving state matches.
		inner.Relayout()
		if err := inner.EnableQuantization(nil); err != nil {
			return nil, err
		}
	}
	x.inner = inner
	x.h = live.New(inner, nil, nil, x.h.Options())
	// The compacted graph was produced by the incremental path, not the
	// batch pipeline; the recorded phase timings no longer describe it.
	x.build = BuildStats{}
	return remap, nil
}
