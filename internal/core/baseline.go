package core

import (
	"fmt"
	"math/rand"

	"repro/internal/graphutil"
	"repro/internal/vecmath"
)

// PruneKNN applies the MRNG edge rule (SelectMRNG) to each node's first
// width kNN neighbors and keeps at most m of them. With no navigating node,
// no search-collected candidates and no connectivity repair, this is the
// NSG-Naive baseline of Section 4.1.2, which the paper uses to show that
// those steps, not the edge rule alone, account for NSG's performance. It
// is also the occlusion pass FANNG starts from.
func PruneKNN(knn *graphutil.Graph, base vecmath.Matrix, width, m int) (*graphutil.Graph, error) {
	if knn.N() != base.Rows {
		return nil, fmt.Errorf("core: kNN graph has %d nodes, base has %d", knn.N(), base.Rows)
	}
	if width <= 0 || m <= 0 {
		return nil, fmt.Errorf("core: candidate width and degree cap must be positive, got %d and %d", width, m)
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
		cands := ctx.appendScored(base, v, knn.Adj[i][:min(width, len(knn.Adj[i]))], ctx.collect[:0])
		cands = dedupeSortedCtx(ctx, n, cands, int32(i))
		sel := SelectMRNGInto(base, v, cands, m, ctx, ctx.idBuf[:0])
		ctx.idBuf = sel[:0]
		adj[i] = append(make([]int32, 0, len(sel)), sel...)
		ctx.collect = cands[:0]
	})
	return &graphutil.Graph{Adj: adj}, nil
}

// RandomStart searches a graph with Algorithm 1 from Starts entry points
// drawn from Rng for each query: the protocol of the baselines without a
// fixed entry point (NSG-Naive, KGraph, FANNG, DPG). Queries share Rng's
// stream, matching the single-thread protocol of the paper's search
// experiments, so a RandomStart is not safe for concurrent use.
type RandomStart struct {
	Graph  *graphutil.Graph
	Base   vecmath.Matrix
	Starts int
	Rng    *rand.Rand
}

// Search returns the k nearest neighbors Algorithm 1 finds with pool size l.
// counter may be nil.
func (x *RandomStart) Search(q []float32, k, l int, counter *vecmath.Counter) []vecmath.Neighbor {
	starts := make([]int32, x.Starts)
	for i := range starts {
		starts[i] = int32(x.Rng.Intn(x.Graph.N()))
	}
	return SearchOnGraph(x.Graph.Adj, x.Base, q, starts, k, l, counter, nil).Neighbors
}
