// Package dpg implements the Diversified Proximity Graph baseline (Li et
// al., "Approximate Nearest Neighbor Search on High Dimensional Data"): an
// angle-diversified half of a kNN graph, made undirected by reverse-edge
// compensation. The compensation step is what inflates DPG's maximum
// out-degree (Table 2 reports MOD up to 20899 on GIST1M), which in turn
// forces ragged storage and a large index — the weakness the paper calls
// out.
package dpg

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/graphutil"
	"repro/internal/vecmath"
)

// Params configures Build.
type Params struct {
	// Keep is how many of each node's kNN edges survive diversification
	// (the paper's strategy keeps k/2).
	Keep int
	Seed int64
}

// Build diversifies a kNN graph: greedily keep the edges that maximize the
// minimum pairwise angle at each node, then add every kept edge's reverse.
// The graph is searched from random starts; its Table 2 memory is ragged
// (IndexBytesRagged), since compensation makes its max degree too large
// for the fixed-stride rows the other methods use.
func Build(knn *graphutil.Graph, base vecmath.Matrix, p Params) (*core.RandomStart, error) {
	n := base.Rows
	if knn.N() != n {
		return nil, fmt.Errorf("dpg: kNN graph has %d nodes, base has %d", knn.N(), n)
	}
	if p.Keep <= 0 && n > 0 {
		p.Keep = max(1, knn.Edges()/n/2)
	}
	workers := graphutil.ParallelWorkers(n)
	scratch := make([]worker, workers)
	kept := make([][]int32, n)
	graphutil.ParallelForWorkers(workers, n, func(w, i int) {
		kept[i] = scratch[w].diversify(base, int32(i), knn.Adj[i], p.Keep)
	})

	// Reverse-edge compensation makes the graph undirected. Node u's list is
	// what adding i→v and v→i for each kept edge, in node order, appends to
	// it: the nodes i < u that kept u, then u's own kept edges, then the
	// nodes i > u that kept u — each once, and never u itself.
	keptBy := make([][]int32, n)
	for i, row := range kept {
		for _, v := range row {
			keptBy[v] = append(keptBy[v], int32(i))
		}
	}
	adj := make([][]int32, n)
	graphutil.ParallelForWorkers(workers, n, func(w, u int) {
		seen := &scratch[w].seen
		seen.Reset(n)
		seen.Visit(int32(u))
		var row []int32
		add := func(ids []int32) {
			for _, v := range ids {
				if seen.Visit(v) {
					row = append(row, v)
				}
			}
		}
		by := keptBy[u] // ascending
		lo, _ := slices.BinarySearch(by, int32(u))
		add(by[:lo])
		add(kept[u])
		add(by[lo:])
		adj[u] = row
	})
	g := &graphutil.Graph{Adj: adj}
	return &core.RandomStart{Graph: g, Base: base, Starts: 1, Rng: rand.New(rand.NewSource(p.Seed))}, nil
}

// worker is one build goroutine's scratch.
type worker struct {
	dirs   []float32 // unit direction from the node to each candidate, row-major
	maxCos []float32 // each candidate's largest cosine to a kept direction
	seen   graphutil.EpochVisited
}

// diversify greedily selects up to keep neighbors maximizing angular spread:
// start from the nearest (kNN lists are ascending), then repeatedly add the
// candidate whose largest cosine to the kept directions is smallest.
func (s *worker) diversify(base vecmath.Matrix, node int32, cands []int32, keep int) []int32 {
	if len(cands) <= keep {
		return append([]int32{}, cands...)
	}
	v := base.Row(int(node))
	dim := len(v)
	s.dirs = append(s.dirs[:0], make([]float32, len(cands)*dim)...)
	dirs := vecmath.Matrix{Data: s.dirs, Rows: len(cands), Dim: dim}
	s.maxCos = s.maxCos[:0]
	for i, c := range cands {
		d, row := dirs.Row(i), base.Row(int(c))
		for j := range v {
			d[j] = row[j] - v[j]
		}
		vecmath.Normalize(d)
		s.maxCos = append(s.maxCos, -2)
	}
	// A kept candidate's max cosine is set to +Inf, which marks it used.
	used := float32(math.Inf(1))
	out := append(make([]int32, 0, keep), cands[0])
	last := 0
	s.maxCos[last] = used
	for len(out) < keep {
		lastDir := dirs.Row(last)
		best, bestScore := -1, float32(2)
		for i := range cands {
			if s.maxCos[i] == used {
				continue
			}
			if c := vecmath.Dot(dirs.Row(i), lastDir); c > s.maxCos[i] {
				s.maxCos[i] = c
			}
			if s.maxCos[i] < bestScore {
				best, bestScore = i, s.maxCos[i]
			}
		}
		if best < 0 {
			break
		}
		s.maxCos[best] = used
		out = append(out, cands[best])
		last = best
	}
	return out
}
