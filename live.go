package nsg

import (
	"time"

	"repro/internal/core"
	"repro/internal/live"
)

// This file is the public face of live updates, the one write path every
// mutable index has: queries read an immutable published snapshot through
// one atomic pointer, Add appends to a delta buffer that queries scan and
// merge, and a background maintainer drains the delta through the
// incremental-insert path before atomically publishing a fresh snapshot.
// See internal/live for the architecture and the README's "Live updates"
// section for the contract.

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

// EnableLiveUpdates sets the maintainer's cadence. Every mutable index
// already accepts Add and Delete concurrently with Search (and with each
// other): new points are searchable the moment Add returns, served with
// exact distances from the delta buffer until the background maintainer
// folds them into the graph. It may be called any number of times, also
// while searches and Adds are in flight; it returns ErrReadOnly on a
// mapped index.
func (x *Index) EnableLiveUpdates(opts LiveOptions) error {
	if x.inner.ReadOnly() {
		return ErrReadOnly
	}
	x.h.SetOptions(opts.internal(x.insertParams()))
	return nil
}

// MaintenanceStats reports live-update maintenance state.
func (x *Index) MaintenanceStats() MaintenanceStats { return maintenanceStats(x.h.Stats()) }

// Flush blocks until every point added before the call is folded into the
// published snapshot. Useful in tests; Save flushes by itself, and serving
// never needs it.
func (x *Index) Flush() { x.h.Flush() }

// Close flushes the delta (so no point is lost) and stops the maintainer
// goroutine; a later Add starts it again. On a mapped index (OpenMapped) it
// also releases the file mapping, and the index must not be searched
// afterwards. Do not call while other goroutines are still using the index.
func (x *Index) Close() {
	x.h.Close()
	x.inner.Close()
}
