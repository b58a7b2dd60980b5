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
	local, err := s.handles[sh].Append(vec, gid)
	if err != nil {
		return -1, -1, err
	}
	s.loc = append(s.loc, slot{int32(sh), local})
	s.n.Store(int64(len(s.loc)))
	return gid, sh, nil
}

// Len returns the number of indexed vectors; safe concurrently with Insert.
func (s *Sharded) Len() int { return int(s.n.Load()) }

// locate returns the shard and local id of global id, or false when id is
// out of range. Safe concurrently with Insert.
func (s *Sharded) locate(id int) (slot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.loc) {
		return slot{}, false
	}
	return s.loc[id], true
}

// VectorByID returns the stored vector with the given global id, read from
// its shard through the locator: the shard's published snapshot once the
// row has drained, its delta buffer before. The returned row is write-once
// shared storage. Safe concurrently with Insert; panics on an out-of-range
// id.
func (s *Sharded) VectorByID(id int) []float32 {
	l, ok := s.locate(id)
	if !ok {
		panic(fmt.Sprintf("distsearch: id %d out of range [0,%d)", id, s.Len()))
	}
	vec, _ := s.handles[l.shard].Vector(l.local) // a located row is always visible
	return vec
}

// Delete tombstones a global id in its shard, under the shard's own id for
// it: the row stops appearing in results at once and keeps routing until
// Compact. Deleting an out-of-range or already-deleted id is an error. Safe
// concurrently with searches, Inserts and other Deletes.
func (s *Sharded) Delete(id int32) error {
	l, ok := s.locate(int(id))
	if !ok {
		return fmt.Errorf("distsearch: id %d out of range [0,%d)", id, s.Len())
	}
	if err := s.handles[l.shard].Delete(l.local); err != nil {
		return fmt.Errorf("distsearch: delete %d: %w", id, err)
	}
	return nil
}

// Deleted reports whether global id is tombstoned.
func (s *Sharded) Deleted(id int32) bool {
	l, ok := s.locate(int(id))
	return ok && s.handles[l.shard].Deleted(l.local)
}

// DeadCount returns the number of tombstoned ids across the shards.
func (s *Sharded) DeadCount() int {
	n := 0
	for _, h := range s.handles {
		n += h.DeadCount()
	}
	return n
}

// Compact rebuilds the index without its tombstoned rows: BuildSharded over
// the survivors in global-id order with p (give it the shard count and
// build parameters the index was built with), metadata rows carried over
// by Select, and the shards' cadence kept. It returns the fresh index and
// the old -> new id map (-1 for deleted; survivors keep their order). s is
// flushed and otherwise left as it was: the caller swaps in the fresh index
// and closes s, which releases a mapping s served from. With nothing
// deleted it returns s itself and the identity.
func (s *Sharded) Compact(p Params) (*Sharded, []int32, error) {
	s.Flush()
	rows := s.Len()
	remap := make([]int32, rows)
	if s.DeadCount() == 0 {
		for i := range remap {
			remap[i] = int32(i)
		}
		return s, remap, nil
	}
	data := make([]float32, 0, (rows-s.DeadCount())*s.dim)
	for id := range remap {
		if s.Deleted(int32(id)) {
			remap[id] = -1
			continue
		}
		remap[id] = int32(len(data) / s.dim)
		data = append(data, s.VectorByID(id)...)
	}
	fresh, err := BuildSharded(vecmath.Matrix{Data: data, Rows: len(data) / s.dim, Dim: s.dim}, p)
	if err != nil {
		return nil, nil, err
	}
	if m := s.Meta; m != nil {
		// Rows the store never got (plain Inserts) keep failing filters.
		fresh.Meta = m.Select(remap[:min(len(remap), m.Rows())], fresh.Len())
	}
	fresh.SetLiveOptions(s.handles[0].Options())
	return fresh, remap, nil
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
