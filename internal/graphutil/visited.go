package graphutil

import "slices"

// EpochVisited is a reusable visited set over nodes 0..n-1. Instead of
// allocating a fresh map or bool slice per traversal, each membership stamp
// is an epoch number: bumping the epoch (Reset) invalidates every stamp in
// O(1), so the backing array is allocated once and reused across an
// unbounded number of traversals. This is the standard trick behind
// zero-allocation graph search loops (HNSW's visited-list pool uses the
// same structure).
//
// An EpochVisited is owned by one goroutine at a time; it has no internal
// locking.
type EpochVisited struct {
	stamp []uint32
	epoch uint32
}

// Reset prepares the set for a traversal over n nodes, clearing all
// membership. The backing array is grown when needed and kept otherwise;
// growth doubles so callers whose n creeps upward one node at a time
// (incremental insert loops) amortize to O(1) per reset.
func (v *EpochVisited) Reset(n int) {
	if len(v.stamp) < n {
		grown := 2 * len(v.stamp)
		if grown < n {
			grown = n
		}
		v.stamp = make([]uint32, grown)
		v.epoch = 0
	}
	v.epoch++
	if v.epoch == 0 {
		// Epoch counter wrapped (after ~4 billion resets): clear the stale
		// stamps once so no old stamp can collide with the restarted epoch.
		for i := range v.stamp {
			v.stamp[i] = 0
		}
		v.epoch = 1
	}
}

// Visit marks id as visited and reports whether it was unvisited before —
// the compare-and-mark every graph search loop performs per neighbor.
func (v *EpochVisited) Visit(id int32) bool {
	if v.stamp[id] == v.epoch {
		return false
	}
	v.stamp[id] = v.epoch
	return true
}

// Stage is Visit over a whole adjacency row: it writes the unvisited ids,
// in order, over dst's backing array (grown when short) and returns them.
// Each id's fate is a coin flip, so there is no branch: every id is written
// at dst[m], m advances by stamp != epoch, and only then is the id stamped.
func (v *EpochVisited) Stage(dst, ids []int32) []int32 {
	dst = slices.Grow(dst[:0], len(ids))[:len(ids)]
	stamp, epoch := v.stamp, v.epoch
	m := 0
	for _, id := range ids {
		dst[m] = id
		d := stamp[id] ^ epoch
		m += int((d | -d) >> 31)
		stamp[id] = epoch
	}
	return dst[:m]
}

// Visited reports whether id has been visited since the last Reset.
func (v *EpochVisited) Visited(id int32) bool {
	return v.stamp[id] == v.epoch
}
