package vecmath

import "slices"

// Neighbor pairs a point id with its (squared) distance to some query. It is
// the unit of currency between every index and the benchmark harness.
type Neighbor struct {
	ID   int32
	Dist float32
}

// CompareNeighbors is the canonical neighbor ordering used everywhere in
// this repository: ascending by distance, ties broken by id so results are
// deterministic across runs. Every sort of Neighbor slices must go through
// this comparator (directly or via SortNeighbors) so the build pipeline and
// the result paths can never disagree on tie-breaking.
func CompareNeighbors(a, b Neighbor) int {
	switch {
	case a.Dist < b.Dist:
		return -1
	case a.Dist > b.Dist:
		return 1
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	}
	return 0
}

// SortNeighbors orders ns by CompareNeighbors. slices.SortFunc keeps the
// call allocation-free, unlike the sort.Slice closure it replaces.
func SortNeighbors(ns []Neighbor) {
	slices.SortFunc(ns, CompareNeighbors)
}

// TopK is a bounded max-heap that keeps the k smallest-distance neighbors
// seen so far. It is the standard structure for brute-force scans and for
// merging shard results.
type TopK struct {
	k    int
	heap []Neighbor // max-heap on Dist
}

// NewTopK returns a collector for the k nearest neighbors. k must be > 0.
func NewTopK(k int) *TopK {
	if k <= 0 {
		panic("vecmath: TopK requires k > 0")
	}
	return &TopK{k: k, heap: make([]Neighbor, 0, k)}
}

// Reset empties the collector and retargets it to k, reusing the backing
// array so a collector can serve many scans without reallocating. k must be
// > 0.
func (t *TopK) Reset(k int) {
	if k <= 0 {
		panic("vecmath: TopK requires k > 0")
	}
	t.k = k
	if cap(t.heap) < k {
		t.heap = make([]Neighbor, 0, k)
	} else {
		t.heap = t.heap[:0]
	}
}

// Push offers a candidate. It is kept only if fewer than k candidates are
// held or it beats the current worst.
func (t *TopK) Push(id int32, dist float32) {
	if len(t.heap) < t.k {
		t.heap = append(t.heap, Neighbor{ID: id, Dist: dist})
		t.up(len(t.heap) - 1)
		return
	}
	if dist >= t.heap[0].Dist {
		return
	}
	t.heap[0] = Neighbor{ID: id, Dist: dist}
	t.down(0)
}

// Len returns the number of candidates currently held.
func (t *TopK) Len() int { return len(t.heap) }

// Result returns the held neighbors sorted ascending by distance. The
// collector is left empty afterwards.
func (t *TopK) Result() []Neighbor {
	out := t.heap
	t.heap = nil
	SortNeighbors(out)
	return out
}

// ResultInto appends the held neighbors, sorted ascending by distance, to
// dst (reset to length zero first) and returns it. Unlike Result, the
// collector keeps ownership of its backing array, so a following Reset
// reuses it — the zero-allocation companion for scan loops.
func (t *TopK) ResultInto(dst []Neighbor) []Neighbor {
	dst = append(dst[:0], t.heap...)
	SortNeighbors(dst)
	return dst
}

func (t *TopK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if t.heap[parent].Dist >= t.heap[i].Dist {
			return
		}
		t.heap[parent], t.heap[i] = t.heap[i], t.heap[parent]
		i = parent
	}
}

func (t *TopK) down(i int) {
	n := len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && t.heap[l].Dist > t.heap[largest].Dist {
			largest = l
		}
		if r < n && t.heap[r].Dist > t.heap[largest].Dist {
			largest = r
		}
		if largest == i {
			return
		}
		t.heap[i], t.heap[largest] = t.heap[largest], t.heap[i]
		i = largest
	}
}

// MergeNeighborLists merges several ascending neighbor lists into the k
// nearest overall, deduplicating ids. Shard searches use it to combine
// per-partition results (the paper's DEEP100M and Taobao experiments).
func MergeNeighborLists(k int, lists ...[]Neighbor) []Neighbor {
	seen := make(map[int32]struct{})
	top := NewTopK(k)
	for _, list := range lists {
		for _, n := range list {
			if _, dup := seen[n.ID]; dup {
				continue
			}
			seen[n.ID] = struct{}{}
			top.Push(n.ID, n.Dist)
		}
	}
	return top.Result()
}

// MergeInto combines per-shard candidate lists (already carrying global
// ids) into the k nearest overall and appends them to dst. Shards partition
// the id space, so ids are unique and a sort suffices — no dedupe
// structure. The (dist, id) order matches MergeNeighborLists, so both
// merges answer byte-identically.
//
// scratch is a reusable concatenation buffer (nil is fine); the possibly
// grown buffer is returned alongside the result so callers can pool it.
// This is the exact merge the in-process fan-out performs, shared so
// remote serving tiers (internal/cluster's router merging per-shard
// responses received over the network) produce byte-identical answers to a
// single process holding the same shards.
func MergeInto(dst, scratch []Neighbor, k int, lists [][]Neighbor) (res, grown []Neighbor) {
	m := scratch[:0]
	for _, b := range lists {
		m = append(m, b...)
	}
	slices.SortFunc(m, CompareNeighbors)
	if len(m) > k {
		m = m[:k]
	}
	dst = append(dst, m...)
	return dst, m[:0]
}
