package graphutil

import (
	"fmt"
	"slices"
)

// CSR is the compressed-sparse-row adjacency every index searches, heap or
// mapped: one edge slab holding the nodes' out-neighbors in node order and
// one offsets array of n+1 entries, so node i's neighbors are
// edges[off[i]:off[i+1]], in the order they were written. The graph takes
// 4(n+1) + 4·edges bytes: a row costs its mean degree, not the maximum
// degree the paper's fixed-stride layout allots every row (Table 2's
// "memory" column, which Graph.IndexBytes keeps). IndexStats.IndexBytes
// reports the CSR's own bytes.
//
// A CSR is written once, when gather, Flatten, FromOffsets or Permute makes
// it, and never after: a writer edits adjacency lists and lays them out
// afresh, so any number of readers may traverse a CSR without a lock.
type CSR struct {
	off    []int32
	edges  []int32
	maxDeg int
}

// gather lays out n rows compactly in fresh arrays: row i is row(i).
func gather(n, edges int, row func(i int) []int32) *CSR {
	g := &CSR{off: make([]int32, n+1), edges: make([]int32, 0, edges)}
	for i := range n {
		r := row(i)
		g.edges = append(g.edges, r...)
		g.off[i+1] = int32(len(g.edges))
		g.maxDeg = max(g.maxDeg, len(r))
	}
	return g
}

// Flatten lays an adjacency-list graph out as a CSR.
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
	g := &CSR{off: off, edges: edges}
	for i := range n {
		d := int(off[i+1]) - int(off[i])
		if d < 0 {
			return nil, fmt.Errorf("graphutil: node %d row ends at %d before it starts at %d", i, off[i+1], off[i])
		}
		g.maxDeg = max(g.maxDeg, d)
	}
	return g, nil
}

// Permute returns g renumbered in fresh arrays: node j of the result is
// node order[j] of g, and every edge target v becomes toNew[v].
func (g *CSR) Permute(order, toNew []int32) *CSR {
	p := gather(len(order), g.Edges(), func(j int) []int32 { return g.Neighbors(order[j]) })
	for k, v := range p.edges {
		p.edges[k] = toNew[v]
	}
	return p
}

// Slabs returns g's offsets array (n+1 entries) and edge slab, the two
// sections a mapped record stores. Do not modify them.
func (g *CSR) Slabs() (off, edges []int32) { return g.off, g.edges }

// N returns the number of nodes.
func (g *CSR) N() int { return len(g.off) - 1 }

// Edges returns the number of directed edges.
func (g *CSR) Edges() int { return len(g.edges) }

// Neighbors returns node i's adjacency as a subslice of the edge slab.
func (g *CSR) Neighbors(i int32) []int32 { return g.edges[g.off[i]:g.off[i+1]] }

// Degree returns node i's out-degree.
func (g *CSR) Degree(i int32) int { return int(g.off[i+1] - g.off[i]) }

// MaxDegree returns the maximum out-degree.
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

// Validate checks that every edge id is in range. The rows are inside the
// slab by construction: FromOffsets checks the offsets it is given.
func (g *CSR) Validate() error {
	n := g.N()
	for i := range n {
		for _, v := range g.Neighbors(int32(i)) {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("graphutil: node %d has out-of-range edge %d", i, v)
			}
		}
	}
	return nil
}
