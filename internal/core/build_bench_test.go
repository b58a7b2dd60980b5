package core

import (
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graphutil"
	"repro/internal/knngraph"
	"repro/internal/vecmath"
)

// TestNSGBuildAllocBudget is Algorithm 2's allocation regression gate: the
// scratch-reusing build allocates about two slices per node (the retained
// adjacency list and its interInsert growth) plus per-worker contexts; the
// seed implementation was ~35 allocations per node. The budget of 5 per
// node trips if per-node maps or scratch churn come back.
func TestNSGBuildAllocBudget(t *testing.T) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 800, Queries: 1, GTK: 1, Dim: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	knn, err := knngraph.BuildExact(ds.Base, 15)
	if err != nil {
		t.Fatal(err)
	}
	p := BuildParams{L: 30, M: 20, Seed: 1}
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := NSGBuild(knn, ds.Base, p); err != nil {
			t.Fatal(err)
		}
	})
	if budget := float64(5 * ds.Base.Rows); allocs > budget {
		t.Errorf("NSGBuild allocates %.0f times for n=%d, budget %.0f", allocs, ds.Base.Rows, budget)
	}
}

// BenchmarkNSGBuild measures Algorithm 2 (search-collect-select, reverse
// insertion, DFS connectivity repair) on a fixed prebuilt kNN graph, so the
// number tracks the NSG construction pipeline itself rather than NN-Descent.
func BenchmarkNSGBuild(b *testing.B) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 2000, Queries: 1, GTK: 1, Dim: 32, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	knn, err := knngraph.BuildExact(ds.Base, 20)
	if err != nil {
		b.Fatal(err)
	}
	p := BuildParams{L: 40, M: 25, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := NSGBuild(knn, ds.Base, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectMRNG times the MRNG prune alone, over the candidate lists
// Algorithm 2's collect pass hands it (nsg.Build's defaults: kNN K = 20,
// L = 50, M = 30, no C cap) on SIFT-like 2 000 x 128 rows. It reports the
// pairs the rule scores per node and the time per scored pair.
func BenchmarkSelectMRNG(b *testing.B) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 2000, Queries: 1, GTK: 1, Dim: 128, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	base := ds.Base
	knn, err := knngraph.BuildExact(base, 20)
	if err != nil {
		b.Fatal(err)
	}
	const l, m = 50, 30
	idx, _, err := NSGBuild(knn, base, BuildParams{L: l, M: m, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	// Replay the collect pass: search from the navigating node, merge the
	// node's kNN neighbours, dedupe and sort.
	ctx := NewSearchContext()
	knnFlat := graphutil.Flatten(knn)
	lists := make([][]vecmath.Neighbor, base.Rows)
	pairs := 0
	for i := range lists {
		v := base.Row(i)
		var visited []vecmath.Neighbor
		SearchOnGraphCtx(ctx, knnFlat, base, v, []int32{idx.Navigating}, 1, l, nil, &visited)
		for _, nb := range knn.Adj[i] {
			visited = append(visited, vecmath.Neighbor{ID: nb, Dist: vecmath.L2(v, base.Row(int(nb)))})
		}
		lists[i] = slices.Clone(dedupeSortedCtx(ctx, base.Rows, visited, int32(i)))
		pairs += mrngPairs(base, lists[i], m)
	}
	out := make([]int32, 0, m)
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for i, cands := range lists {
			out = SelectMRNGInto(base, base.Row(i), cands, m, ctx, out[:0])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
	b.ReportMetric(float64(pairs)/float64(len(lists)), "pairs/node")
}

// mrngPairs counts the pairs SelectMRNGInto scores on cands: each kept
// neighbour but the m-th against every later candidate no earlier kept one
// occludes.
func mrngPairs(base vecmath.Matrix, cands []vecmath.Neighbor, m int) int {
	pairs := 0
	alive := slices.Clone(cands)
	for kept := 1; kept < m && len(alive) > 1; kept++ {
		r := base.Row(int(alive[0].ID))
		pairs += len(alive) - 1
		alive = slices.DeleteFunc(alive[1:], func(q vecmath.Neighbor) bool {
			return vecmath.L2(r, base.Row(int(q.ID))) < q.Dist
		})
	}
	return pairs
}
