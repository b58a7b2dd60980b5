package core

import (
	"fmt"
	"math/rand"

	"repro/internal/graphutil"
	"repro/internal/vecmath"
)

// NSGNaive is the designed baseline from Section 4.1.2: the MRNG edge rule
// applied directly to the edges of the approximate kNN graph, with no
// navigating node, no search-collected candidates, and no connectivity
// repair. Search starts from random nodes. The paper uses it to show that
// the search-collect-select pass and the connectivity guarantee — not the
// edge rule alone — account for NSG's performance.
type NSGNaive struct {
	Graph *graphutil.Graph
	Base  vecmath.Matrix
	rng   *rand.Rand
}

// NSGNaiveBuild prunes each node's kNN adjacency with SelectMRNG.
func NSGNaiveBuild(knn *graphutil.Graph, base vecmath.Matrix, m int, seed int64) (*NSGNaive, error) {
	if knn.N() != base.Rows {
		return nil, fmt.Errorf("core: kNN graph has %d nodes, base has %d", knn.N(), base.Rows)
	}
	if m <= 0 {
		return nil, fmt.Errorf("core: degree cap m must be positive, got %d", m)
	}
	n := base.Rows
	adj := make([][]int32, n)
	workers := graphutil.ParallelWorkers(n)
	ctxs := make([]*SearchContext, workers)
	for w := range ctxs {
		ctxs[w] = NewSearchContext()
	}
	graphutil.ParallelForWorkers(workers, n, func(w, i int) {
		ctx := ctxs[w]
		v := base.Row(i)
		nbs := knn.Adj[i]
		dists := ctx.distScratch(len(nbs))
		vecmath.L2ToRows(base, v, nbs, dists)
		cands := ctx.collect[:0]
		for j, nb := range nbs {
			cands = append(cands, vecmath.Neighbor{ID: nb, Dist: dists[j]})
		}
		cands = dedupeSortedCtx(ctx, n, cands, int32(i))
		sel := SelectMRNGInto(base, v, cands, m, ctx, ctx.idBuf[:0])
		ctx.idBuf = sel[:0]
		adj[i] = append(make([]int32, 0, len(sel)), sel...)
		ctx.collect = cands[:0]
	})
	return &NSGNaive{
		Graph: &graphutil.Graph{Adj: adj},
		Base:  base,
		rng:   rand.New(rand.NewSource(seed)),
	}, nil
}

// Search runs Algorithm 1 from a random start node (the paper's protocol
// for NSG-Naive). Not safe for concurrent use because of the shared RNG.
func (x *NSGNaive) Search(query []float32, k, l int, counter *vecmath.Counter) []vecmath.Neighbor {
	start := int32(x.rng.Intn(x.Graph.N()))
	return SearchOnGraph(x.Graph.Adj, x.Base, query, []int32{start}, k, l, counter, nil).Neighbors
}
