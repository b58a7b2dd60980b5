package distsearch

import (
	"fmt"
	"math"

	"repro/internal/live"
	"repro/internal/vecmath"
)

// This file is the write side of a sharded index: one live.Handle per
// shard, global ids allocated above them, and inserts routed by nearest
// navigating node to exactly one shard's delta buffer — so a streaming
// write touches one shard's append path while all other shards keep
// serving their published snapshots untouched, and even the receiving
// shard's readers never wait.

// SetLiveOptions sets every shard handle's insert parameters and cadence.
func (s *Sharded) SetLiveOptions(opts live.Options) {
	for _, h := range s.handles {
		h.SetOptions(opts)
	}
}

// Route returns the shard that would receive an inserted copy of vec: the
// one whose navigating node (the shard's approximate medoid) is nearest.
// Random partitions give near-identical medoids, so routing by medoid
// approximates routing by load while keeping locality for clustered data.
func (s *Sharded) Route(vec []float32) int {
	best, bestD := 0, float32(math.Inf(1))
	for sh, nav := range s.navVec {
		if d := vecmath.L2(vec, nav); d < bestD {
			best, bestD = sh, d
		}
	}
	return best
}

// Insert adds vec under a new global id without blocking searches: the
// vector is routed to the shard returned by Route and appended to that
// shard's delta buffer. It is searchable the moment the call returns; the
// shard's maintainer folds it into the graph off the query path. Safe to
// call concurrently with searches and with other Inserts. Returns the new
// global id and the shard it landed in.
func (s *Sharded) Insert(vec []float32) (int32, int, error) {
	if len(vec) != s.dim {
		return -1, -1, fmt.Errorf("distsearch: insert dim %d != index dim %d", len(vec), s.dim)
	}
	sh := s.Route(vec)
	// Global id allocation, the shard append and the locator entry serialize
	// on one mutex, so a global id below Len always locates its row.
	s.mu.Lock()
	defer s.mu.Unlock()
	gid := int32(len(s.loc))
	local, err := s.handles[sh].AppendWithID(vec, gid)
	if err != nil {
		return -1, -1, err
	}
	s.loc = append(s.loc, slot{int32(sh), local})
	s.n.Store(int64(len(s.loc)))
	return gid, sh, nil
}

// Len returns the number of indexed vectors; safe concurrently with Insert.
func (s *Sharded) Len() int { return int(s.n.Load()) }

// VectorByID returns the stored vector with the given global id, read from
// its shard through the locator: the shard's published snapshot once the
// row has drained, its delta buffer before. The returned row is write-once
// shared storage. Safe concurrently with Insert; panics on an out-of-range
// id.
func (s *Sharded) VectorByID(id int) []float32 {
	l := func() slot {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.loc[id]
	}()
	vec, _ := s.handles[l.shard].Vector(l.local) // a located row is always visible
	return vec
}

// LiveStats aggregates the per-shard maintenance state: pending depths and
// drain counters are summed, LastPublish is the oldest shard publish (the
// staleness bound a monitoring page wants).
func (s *Sharded) LiveStats() live.Stats {
	var out live.Stats
	for i, h := range s.handles {
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

// Flush blocks until every insert issued before the call is folded into a
// published shard snapshot, so the handles' translate tables cover every
// row.
func (s *Sharded) Flush() {
	for _, h := range s.handles {
		h.Flush()
	}
}
