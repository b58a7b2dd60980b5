package nsg

import (
	"time"

	"repro/internal/core"
	"repro/internal/live"
)

// This file is the public face of live updates, the one write path every
// index has: queries read an immutable published snapshot through
// one atomic pointer, Add appends to a delta buffer that queries scan and
// merge, and a background maintainer drains the delta through the
// incremental-insert path before atomically publishing a fresh snapshot.
// See internal/live for the architecture and the README's "Live updates"
// section for the contract.

// LiveOptions tunes live-update serving. Zero values pick defaults
// (drain threshold 512, publish interval 100ms).
type LiveOptions struct {
	// MaxPending is the delta depth that triggers an immediate drain.
	// Larger values batch more graph work per publish; smaller values keep
	// the brute-force-scanned delta shorter.
	MaxPending int
	// PublishInterval bounds how long an added point is served by the
	// delta scan before the maintainer folds it into the graph snapshot.
	PublishInterval time.Duration
}

// MaintenanceStats reports the state of live-update maintenance: Pending
// is the delta depth (points added but not yet drained into the published
// snapshot, still served by the scan path), SnapshotRows the points the
// published snapshot serves, Publishes and Drained count snapshots
// published and points folded into the graph, and LastPublish is when the
// current snapshot was published (on a sharded index, the oldest shard's).
type MaintenanceStats = live.Stats

func (o LiveOptions) internal(insert core.InsertParams) live.Options {
	return live.Options{
		MaxPending: o.MaxPending,
		Interval:   o.PublishInterval,
		Insert:     insert,
	}
}

// EnableLiveUpdates sets the maintainers' cadence. Every index
// already accepts Add and Delete concurrently with Search (and with each
// other): new points are searchable the moment Add returns, served with
// exact distances from the delta buffer until the background maintainer of
// the shard they landed in folds them into the graph. It may be called any
// number of times, also while searches and Adds are in flight. The error
// is always nil.
func (x *Index) EnableLiveUpdates(opts LiveOptions) error {
	x.s.setLive(opts.internal(x.insertParams()))
	return nil
}

// setLive sets every shard handle's insert parameters and cadence.
func (s *sharded) setLive(opts live.Options) {
	for _, h := range s.handles {
		h.SetOptions(opts)
	}
}

// MaintenanceStats reports live-update maintenance state, aggregated over
// the shards: pending depths and drain counters are summed, and LastPublish
// is the oldest shard's publish time (the staleness bound).
func (x *Index) MaintenanceStats() MaintenanceStats {
	var out live.Stats
	for i, h := range x.s.handles {
		st := h.Stats()
		out.Pending += st.Pending
		out.SnapshotRows += st.SnapshotRows
		out.Publishes += st.Publishes
		out.Drained += st.Drained
		if i == 0 || st.LastPublish.Before(out.LastPublish) {
			out.LastPublish = st.LastPublish
		}
	}
	return out
}

// Flush blocks until every point added before the call is folded into a
// published snapshot. Useful in tests; Save flushes by itself, and serving
// never needs it.
func (x *Index) Flush() {
	for _, h := range x.s.handles {
		h.Flush()
	}
}
