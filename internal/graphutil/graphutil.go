// Package graphutil provides the directed-graph machinery shared by every
// index: an adjacency representation, Tarjan's strongly-connected-components
// algorithm, reachability, degree statistics and NN-edge accounting — the
// quantities the paper reports in Table 2 (AOD/MOD/NN%) and Table 4 (SCC).
package graphutil

import "repro/internal/vecmath"

// Graph is a directed adjacency list over nodes 0..N-1.
type Graph struct {
	Adj [][]int32
}

// New returns an empty graph with n nodes.
func New(n int) *Graph {
	return &Graph{Adj: make([][]int32, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.Adj) }

// Neighbors returns node i's out-list.
func (g *Graph) Neighbors(i int32) []int32 { return g.Adj[i] }

// AddEdge appends the directed edge from→to without checking duplicates.
func (g *Graph) AddEdge(from, to int32) {
	g.Adj[from] = append(g.Adj[from], to)
}

// HasEdge reports whether the directed edge from→to exists.
func (g *Graph) HasEdge(from, to int32) bool {
	for _, v := range g.Adj[from] {
		if v == to {
			return true
		}
	}
	return false
}

// Edges returns the total number of directed edges.
func (g *Graph) Edges() int {
	n := 0
	for _, a := range g.Adj {
		n += len(a)
	}
	return n
}

// DegreeStats describes a graph's out-degree distribution, matching the
// columns of the paper's Table 2.
type DegreeStats struct {
	Avg float64 // AOD: average out-degree
	Max int     // MOD: maximum out-degree
	Min int
}

// Degrees computes out-degree statistics.
func (g *Graph) Degrees() DegreeStats {
	return degreeStats(g.N(), func(i int) int { return len(g.Adj[i]) })
}

// degreeStats summarizes the out-degrees deg(0..n-1).
func degreeStats(n int, deg func(int) int) DegreeStats {
	if n == 0 {
		return DegreeStats{}
	}
	st := DegreeStats{Min: deg(0)}
	total := 0
	for i := range n {
		d := deg(i)
		total += d
		st.Max = max(st.Max, d)
		st.Min = min(st.Min, d)
	}
	st.Avg = float64(total) / float64(n)
	return st
}

// IndexBytes returns the memory footprint of the graph when stored the way
// the paper's implementations store it: every node is allocated MOD slots of
// 4 bytes (int32 ids) so rows are contiguous and fixed-stride. Table 2's
// "memory" column uses exactly this accounting.
func (g *Graph) IndexBytes() int64 {
	return int64(g.N()) * int64(g.Degrees().Max) * 4
}

// IndexBytesRagged returns the footprint with exact per-node storage
// (4 bytes per edge plus a 4-byte length per node). DPG's Table 2 row uses
// this accounting because its maximum degree is too large for fixed-stride
// rows.
func (g *Graph) IndexBytesRagged() int64 {
	return int64(g.Edges())*4 + int64(g.N())*4
}

// SCCCount returns the number of strongly connected components (iterative
// Tarjan, safe for deep graphs).
func (g *Graph) SCCCount() int {
	n := g.N()
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int32
	var next int32
	count := 0

	type frame struct {
		v  int32
		ei int
	}
	var call []frame

	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		call = append(call[:0], frame{v: int32(root)})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true

		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			advanced := false
			for f.ei < len(g.Adj[v]) {
				w := g.Adj[v][f.ei]
				f.ei++
				if index[w] == -1 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v is finished
			if low[v] == index[v] {
				count++
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					if w == v {
						break
					}
				}
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				parent := call[len(call)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}
	return count
}

// ReachableFrom returns the number of nodes reachable from root by directed
// edges (including root). The paper counts NSG/HNSW connectivity as "1 SCC"
// when every node is reachable from the fixed entry point; this is the
// primitive behind that check and behind NSG's DFS spanning repair.
func (g *Graph) ReachableFrom(root int32) int { return reachableFrom(g, root) }

// NNPercent returns the fraction (0..100) of nodes whose edge list contains
// their exact nearest neighbor — Table 2's NN(%) column. nn[i] must hold the
// id of node i's exact nearest neighbor.
func (g *Graph) NNPercent(nn []int32) float64 {
	if g.N() == 0 {
		return 0
	}
	hits := 0
	for i, adj := range g.Adj {
		target := nn[i]
		for _, v := range adj {
			if v == target {
				hits++
				break
			}
		}
	}
	return 100 * float64(hits) / float64(g.N())
}

// ExactNearest computes each point's exact nearest neighbor id by brute
// force (used for NN% accounting on test-scale data).
func ExactNearest(base vecmath.Matrix) []int32 {
	nn := make([]int32, base.Rows)
	for i := 0; i < base.Rows; i++ {
		best := float32(0)
		bestID := int32(-1)
		x := base.Row(i)
		for j := 0; j < base.Rows; j++ {
			if j == i {
				continue
			}
			d := vecmath.L2(x, base.Row(j))
			if bestID == -1 || d < best || (d == best && int32(j) < bestID) {
				best, bestID = d, int32(j)
			}
		}
		nn[i] = bestID
	}
	return nn
}
