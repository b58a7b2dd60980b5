package nsg

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/vecmath"
)

// This file exposes incremental maintenance — the paper's Section 5 future
// work — on the public index: Add grows the index one vector at a time,
// Delete tombstones ids, and Compact rebuilds without the deleted points.

// Add inserts a vector into an existing index and returns its id. The
// vector is copied.
//
// Without live updates, Add mutates the graph in place and must not run
// concurrently with Search. After EnableLiveUpdates, Add is non-blocking
// and safe from any goroutine: it appends to the delta buffer, the point
// is searchable (with exact distances) the moment Add returns, and the
// background maintainer folds it into the graph off the query path.
func (x *Index) Add(vec []float32) (int32, error) {
	if len(vec) != x.inner.Base.Dim {
		return -1, fmt.Errorf("nsg: vector dim %d != index dim %d", len(vec), x.inner.Base.Dim)
	}
	if !vecmath.Finite(vec) {
		return -1, ErrNonFinite
	}
	if h := x.live.Load(); h != nil {
		// The delta buffer copies vec into its chunk; no caller-side copy.
		return h.Append(vec)
	}
	own := make([]float32, len(vec))
	copy(own, vec)
	return x.inner.Insert(own, core.InsertParams{M: x.opts.MaxDegree, L: x.opts.BuildL})
}

// Delete tombstones an id: it stops appearing in results immediately but
// keeps routing searches until Compact — it costs one bit and no pool slot,
// so searches over a tombstoned index do the work of a search over a clean
// one. Deleting an already-deleted or out-of-range id is an error.
func (x *Index) Delete(id int32) error {
	if h := x.live.Load(); h != nil {
		// Range and duplicate checks happen inside the handle, under its
		// writer mutex, so two concurrent Deletes cannot both pass a
		// check-then-act window and report success.
		return h.Delete(id)
	}
	if id < 0 || int(id) >= x.inner.Base.Rows {
		return fmt.Errorf("nsg: id %d out of range [0,%d)", id, x.inner.Base.Rows)
	}
	if x.dead == nil {
		x.dead = core.NewTombstones()
	}
	if x.dead.Deleted(id) {
		return fmt.Errorf("nsg: id %d already deleted", id)
	}
	x.dead.Delete(id)
	return nil
}

// Deleted reports whether id has been tombstoned.
func (x *Index) Deleted(id int32) bool {
	if h := x.live.Load(); h != nil {
		return h.Deleted(id)
	}
	return x.dead.Deleted(id)
}

// DeletedCount returns the number of tombstoned ids awaiting Compact.
func (x *Index) DeletedCount() int {
	if h := x.live.Load(); h != nil {
		return h.DeadCount()
	}
	return x.dead.Len()
}

// Compact rebuilds the index without its tombstoned points. It returns the
// mapping from old ids to new ids (-1 for deleted); the receiving index is
// replaced in place.
func (x *Index) Compact() ([]int32, error) {
	if x.live.Load() != nil {
		return nil, fmt.Errorf("nsg: Compact is not available while live updates are enabled")
	}
	if x.dead.Len() == 0 {
		remap := make([]int32, x.inner.Base.Rows)
		for i := range remap {
			remap[i] = int32(i)
		}
		return remap, nil
	}
	inner, remap, err := x.inner.Compact(x.dead, core.InsertParams{M: x.opts.MaxDegree, L: x.opts.BuildL})
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
	if x.opts.Quantize != QuantNone {
		// The compacted graph is fresh: re-relayout and retrain the grid on
		// the surviving vectors so the quantized serving state matches.
		inner.Relayout()
		if x.opts.Quantize == QuantInt4 {
			err = inner.EnableQuantization4(nil)
		} else {
			err = inner.EnableQuantization(nil)
		}
		if err != nil {
			return nil, err
		}
	}
	x.inner = inner
	x.dead = nil
	// The compacted graph was produced by the incremental path, not the
	// batch pipeline; the recorded phase timings no longer describe it.
	x.build = BuildStats{}
	return remap, nil
}
