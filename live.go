package nsg

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/live"
)

// This file is the public face of live updates: EnableLiveUpdates switches
// an index from the classic mutation contract ("Add must not run
// concurrently with Search") to non-blocking serving — queries read an
// immutable published snapshot through one atomic pointer, Add appends to
// a delta buffer that queries scan and merge, and a background maintainer
// drains the delta through the incremental-insert path before atomically
// publishing a fresh snapshot. See internal/live for the architecture and
// the README's "Live updates" section for the contract.

// LiveOptions tunes live-update serving. Zero values pick defaults
// (chunk 256, drain threshold 512, publish interval 100ms).
type LiveOptions struct {
	// MaxPending is the delta depth that triggers an immediate drain.
	// Larger values batch more graph work per publish; smaller values keep
	// the brute-force-scanned delta shorter.
	MaxPending int
	// PublishInterval bounds how long an added point is served by the
	// delta scan before the maintainer folds it into the graph snapshot.
	PublishInterval time.Duration
	// ChunkRows is the delta buffer's chunk capacity.
	ChunkRows int
}

// MaintenanceStats reports the state of live-update maintenance.
type MaintenanceStats struct {
	// Pending is the current delta depth: points added but not yet drained
	// into the published snapshot (still served by the scan path).
	Pending int
	// SnapshotRows is the number of points the published snapshot serves.
	SnapshotRows int
	// Publishes counts snapshots published since live updates were enabled.
	Publishes uint64
	// Drained counts points folded into the graph by the maintainer.
	Drained uint64
	// LastPublish is when the current snapshot was published.
	LastPublish time.Time
}

func (o LiveOptions) internal(insert core.InsertParams) live.Options {
	return live.Options{
		ChunkRows:  o.ChunkRows,
		MaxPending: o.MaxPending,
		Interval:   o.PublishInterval,
		Insert:     insert,
	}
}

func maintenanceStats(s live.Stats) MaintenanceStats {
	return MaintenanceStats{
		Pending:      s.Pending,
		SnapshotRows: s.SnapshotRows,
		Publishes:    s.Publishes,
		Drained:      s.Drained,
		LastPublish:  s.LastPublish,
	}
}

// EnableLiveUpdates switches the index to non-blocking live serving: Add
// becomes safe to call concurrently with Search (and with other Adds), new
// points are searchable the moment Add returns, and a background
// maintainer folds them into the graph off the query path. Search results
// and distances are unchanged — a point is served with exact distances
// from the delta buffer until the maintainer drains it.
//
// Enabling is safe while searches are already in flight (the fully
// initialized handle is published atomically; searches that raced the
// switch served from the identical pre-live state), but must not run
// concurrently with classic-contract mutations (Add/Delete/Compact).
//
// After enabling, Compact is unavailable (it would rebuild state out from
// under concurrent readers) and Close must be called when discarding the
// index so the maintainer goroutine is released.
func (x *Index) EnableLiveUpdates(opts LiveOptions) error {
	if x.inner.ReadOnly() {
		return ErrReadOnly
	}
	h := live.Start(x.inner, nil, x.dead, opts.internal(core.InsertParams{M: x.opts.MaxDegree, L: x.opts.BuildL}))
	if !x.live.CompareAndSwap(nil, h) {
		h.Close()
		return fmt.Errorf("nsg: live updates already enabled")
	}
	x.dead = nil // the handle owns the tombstone set now
	return nil
}

// Live reports whether live updates are enabled.
func (x *Index) Live() bool { return x.live.Load() != nil }

// MaintenanceStats reports live-update maintenance state; the zero value
// when live updates are not enabled.
func (x *Index) MaintenanceStats() MaintenanceStats {
	h := x.live.Load()
	if h == nil {
		return MaintenanceStats{}
	}
	return maintenanceStats(h.Stats())
}

// Flush blocks until every point added before the call is folded into the
// published snapshot. Useful in tests and before Save; serving never needs
// it.
func (x *Index) Flush() {
	if h := x.live.Load(); h != nil {
		h.Flush()
	}
}

// Close ends live serving: it flushes the delta (so no point is lost),
// stops the maintainer goroutine, and returns the index to the classic
// mutation contract (Add/Delete/Compact single-writer, not concurrent with
// Search). On a mapped index (OpenMapped) it instead releases the file
// mapping; the index must not be searched afterwards. A no-op otherwise.
// Do not call while other goroutines are still using the index.
func (x *Index) Close() {
	h := x.live.Load()
	if h != nil {
		h.Flush()
		h.Close()
		if d := h.Dead(); d.Len() > 0 {
			x.dead = d
		}
		x.live.Store(nil)
	}
	x.inner.Close()
}
