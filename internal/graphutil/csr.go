package graphutil

import (
	"fmt"
	"slices"
)

// CSR is the compressed-sparse-row adjacency every index searches, heap or
// mapped: one edge slab holding the nodes' out-neighbors and, per node, the
// bounds of its row in it, so node i's neighbors are edges[lo[i]:hi[i]],
// in the order they were written. A compact graph (every built, loaded or
// mapped one, and every published snapshot) keeps its rows in node order
// with nothing between them. Its bounds are then one offsets array of n+1
// entries, lo = off[:n] and hi = off[1:], and the graph takes
// 4(n+1) + 4·edges bytes: a row costs its mean degree, not the maximum
// degree the paper's fixed-stride layout allots every row (Table 2's
// "memory" column, which Graph.IndexBytes keeps). IndexStats.IndexBytes
// reports the CSR's own bytes.
//
// Edits (AppendNode, SetNeighbors, AddEdge) rewrite a row in its own span
// when it fits. A row that outgrows its span moves to the tail of the slab,
// and the span it leaves is counted garbage, which Compact reclaims; an
// edit that leaves a gap first splits the bounds into two arrays. Fork hands
// a writer a graph that never rewrites a row the original can read.
type CSR struct {
	edges   []int32
	lo, hi  []int32
	maxDeg  int  // an upper bound on every degree, exact while compact
	garbage int  // slab slots no row holds
	frozen  int  // slab length at the Fork: the slots below it are never written
	split   bool // lo and hi are separate arrays, not views of one offsets array
}

// gather lays out n rows compactly in fresh arrays: row i is row(i).
func gather(n, edges int, row func(i int) []int32) *CSR {
	off := make([]int32, n+1)
	g := &CSR{edges: make([]int32, 0, edges)}
	for i := range n {
		r := row(i)
		g.edges = append(g.edges, r...)
		off[i+1] = int32(len(g.edges))
		g.maxDeg = max(g.maxDeg, len(r))
	}
	g.lo, g.hi = off[:n], off[1:]
	return g
}

// Flatten lays an adjacency-list graph out as a compact CSR.
func Flatten(g *Graph) *CSR {
	return gather(g.N(), g.Edges(), func(i int) []int32 { return g.Adj[i] })
}

// FromOffsets wraps an offsets array of n+1 entries and the edge slab it
// indexes (a mapped record's two sections) without copying either. The
// offsets must start at 0, never decrease and end at len(edges); the edge
// ids are checked by Validate.
func FromOffsets(off, edges []int32) (*CSR, error) {
	n := len(off) - 1
	if n < 0 || off[0] != 0 || int(off[n]) != len(edges) {
		return nil, fmt.Errorf("graphutil: %d offsets do not span a %d-edge slab", len(off), len(edges))
	}
	g := &CSR{edges: edges, lo: off[:n], hi: off[1:]}
	for i := range n {
		d := int(off[i+1]) - int(off[i])
		if d < 0 {
			return nil, fmt.Errorf("graphutil: node %d row ends at %d before it starts at %d", i, off[i+1], off[i])
		}
		g.maxDeg = max(g.maxDeg, d)
	}
	return g, nil
}

// Clone returns a compact copy of g in fresh arrays.
func (g *CSR) Clone() *CSR {
	return gather(g.N(), g.Edges(), func(i int) []int32 { return g.Neighbors(int32(i)) })
}

// Permute returns g renumbered in fresh compact arrays: node j of the
// result is node order[j] of g, and every edge target v becomes toNew[v].
func (g *CSR) Permute(order, toNew []int32) *CSR {
	p := gather(len(order), g.Edges(), func(j int) []int32 { return g.Neighbors(order[j]) })
	for k, v := range p.edges {
		p.edges[k] = toNew[v]
	}
	return p
}

// Compact reclaims the garbage edits left: it rebuilds g in fresh compact
// arrays unless g is compact already.
func (g *CSR) Compact() {
	if g.split {
		*g = *g.Clone()
	}
}

// Slabs compacts g and returns its offsets array (n+1 entries) and edge
// slab, the two sections a mapped record stores.
func (g *CSR) Slabs() (off, edges []int32) {
	g.Compact()
	return g.lo[:len(g.lo)+1], g.edges
}

// Fork returns a graph that reads as g does and can be edited without
// changing any row g reads: it copies the bounds and shares the edge slab,
// which it writes only past g's length. g itself must not be edited after.
func (g *CSR) Fork() *CSR {
	f := *g
	f.frozen = len(g.edges)
	if g.split {
		f.lo, f.hi = slices.Clone(g.lo), slices.Clone(g.hi)
	} else {
		off := slices.Clone(g.lo[:len(g.lo)+1])
		f.lo, f.hi = off[:len(off)-1], off[1:]
	}
	return &f
}

// unpack gives hi an array of its own, so a row's end can move apart from
// the next row's start.
func (g *CSR) unpack() {
	if !g.split {
		g.hi, g.split = slices.Clone(g.hi), true
	}
}

// atTail reports whether row i, spanning [lo, hi), may grow in place: it
// ends the slab above the frozen prefix, and on compact bounds it is the
// last row.
func (g *CSR) atTail(i int32, lo, hi int) bool {
	return lo >= g.frozen && hi == len(g.edges) && (g.split || int(i) == len(g.lo)-1)
}

// moveToTail starts row i afresh at the end of the slab, leaving its old
// span [lo, hi) as garbage, and returns the new start.
func (g *CSR) moveToTail(i int32, lo, hi int) int {
	g.unpack()
	g.garbage += hi - lo
	g.lo[i] = int32(len(g.edges))
	return len(g.edges)
}

// AppendNode adds a node with no out-edges.
func (g *CSR) AppendNode() {
	e := int32(len(g.edges))
	if g.split {
		g.lo, g.hi = append(g.lo, e), append(g.hi, e)
		return
	}
	off := append(g.lo[:len(g.lo)+1], e)
	g.lo, g.hi = off[:len(off)-1], off[1:]
}

// SetNeighbors replaces node i's out-edges with ids, which must not alias
// the graph.
func (g *CSR) SetNeighbors(i int32, ids []int32) {
	lo, hi := int(g.lo[i]), int(g.hi[i])
	switch {
	case lo >= g.frozen && len(ids) <= hi-lo:
		if len(ids) < hi-lo {
			g.unpack()
			g.garbage += hi - lo - len(ids)
		}
		copy(g.edges[lo:], ids)
	case g.atTail(i, lo, hi):
		g.edges = append(g.edges[:lo], ids...)
	default:
		lo = g.moveToTail(i, lo, hi)
		g.edges = append(g.edges, ids...)
	}
	g.hi[i] = int32(lo + len(ids))
	g.maxDeg = max(g.maxDeg, len(ids))
	g.reclaim()
}

// reclaim compacts once garbage outweighs the live edges, so edits cost
// amortized O(1) space per written id.
func (g *CSR) reclaim() {
	if g.garbage > len(g.edges)-g.garbage {
		g.Compact()
	}
}

// AddEdge appends the edge i→to without checking duplicates.
func (g *CSR) AddEdge(i, to int32) {
	lo, hi := int(g.lo[i]), int(g.hi[i])
	if !g.atTail(i, lo, hi) {
		g.moveToTail(i, lo, hi)
		g.edges = append(g.edges, g.edges[lo:hi]...)
	}
	g.edges = append(g.edges, to)
	g.hi[i] = int32(len(g.edges))
	g.maxDeg = max(g.maxDeg, g.Degree(i))
	g.reclaim()
}

// N returns the number of nodes.
func (g *CSR) N() int { return len(g.lo) }

// Edges returns the number of directed edges.
func (g *CSR) Edges() int { return len(g.edges) - g.garbage }

// Neighbors returns node i's adjacency as a subslice of the edge slab.
func (g *CSR) Neighbors(i int32) []int32 { return g.edges[g.lo[i]:g.hi[i]] }

// Degree returns node i's out-degree.
func (g *CSR) Degree(i int32) int { return int(g.hi[i] - g.lo[i]) }

// MaxDegree returns the maximum out-degree of a compact graph; after edits
// that shortened rows it is an upper bound until Compact.
func (g *CSR) MaxDegree() int { return g.maxDeg }

// Degrees computes out-degree statistics, as Graph.Degrees does.
func (g *CSR) Degrees() DegreeStats {
	return degreeStats(g.N(), func(i int) int { return g.Degree(int32(i)) })
}

// ToGraph converts back to the adjacency-list representation.
func (g *CSR) ToGraph() *Graph {
	a := New(g.N())
	for i := range a.Adj {
		a.Adj[i] = slices.Clone(g.Neighbors(int32(i)))
	}
	return a
}

// ReachableFrom counts the nodes reachable from root, root included.
func (g *CSR) ReachableFrom(root int32) int { return reachableFrom(g, root) }

// Validate checks structural sanity: every row inside the slab, every id
// in range.
func (g *CSR) Validate() error {
	n := g.N()
	for i := range n {
		lo, hi := g.lo[i], g.hi[i]
		if lo < 0 || hi < lo || int(hi) > len(g.edges) {
			return fmt.Errorf("graphutil: node %d row [%d,%d) outside the %d-slot edge slab", i, lo, hi, len(g.edges))
		}
		for _, v := range g.edges[lo:hi] {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("graphutil: node %d has out-of-range edge %d", i, v)
			}
		}
	}
	return nil
}
