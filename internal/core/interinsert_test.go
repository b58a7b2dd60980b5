package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/graphutil"
	"repro/internal/knngraph"
	"repro/internal/vecmath"
)

// buildOneSided replicates Algorithm 2's per-node select (steps i-iii)
// without the reverse-insert pass, so interInsert can be tested in
// isolation.
func buildOneSided(t *testing.T, base vecmath.Matrix, knnK, l, m int) [][]int32 {
	t.Helper()
	knn, err := knngraph.BuildExact(base, knnK)
	if err != nil {
		t.Fatal(err)
	}
	centroid := vecmath.Centroid(base)
	nav := SearchOnGraph(knn.Adj, base, centroid, []int32{0}, 1, l, nil, nil).Neighbors[0].ID
	adj := make([][]int32, base.Rows)
	ctx := NewSearchContext()
	for i := 0; i < base.Rows; i++ {
		v := base.Row(i)
		var visited []vecmath.Neighbor
		SearchOnGraph(knn.Adj, base, v, []int32{nav}, 1, l, nil, &visited)
		for _, nb := range knn.Adj[i] {
			visited = append(visited, vecmath.Neighbor{ID: nb, Dist: vecmath.L2(v, base.Row(int(nb)))})
		}
		adj[i] = SelectMRNG(base, v, dedupeSortedCtx(ctx, base.Rows, visited, int32(i)), m)
	}
	return adj
}

// interInsertTest runs interInsert with freshly allocated per-worker
// contexts, as NSGBuild does.
func interInsertTest(adj [][]int32, base vecmath.Matrix, m int) {
	ctxs := make([]*SearchContext, graphutil.ParallelWorkers(len(adj)))
	for w := range ctxs {
		ctxs[w] = NewSearchContext()
	}
	interInsert(adj, base, m, ctxs)
}

func interTestBase(t *testing.T) vecmath.Matrix {
	t.Helper()
	ds, err := dataset.SIFTLike(dataset.Config{N: 600, Queries: 1, GTK: 1, Dim: 32, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Base
}

func TestInterInsertIncreasesDegree(t *testing.T) {
	base := interTestBase(t)
	adj := buildOneSided(t, base, 20, 30, 25)
	before := 0
	for _, a := range adj {
		before += len(a)
	}
	interInsertTest(adj, base, 25)
	after := 0
	for _, a := range adj {
		after += len(a)
	}
	if after <= before {
		t.Errorf("interInsert did not add edges: %d -> %d", before, after)
	}
}

func TestInterInsertRespectsCapAndInvariants(t *testing.T) {
	base := interTestBase(t)
	m := 10
	adj := buildOneSided(t, base, 20, 30, m)
	interInsertTest(adj, base, m)
	for i, a := range adj {
		if len(a) > m {
			t.Fatalf("node %d degree %d exceeds cap %d after interInsert", i, len(a), m)
		}
		seen := map[int32]struct{}{}
		for _, v := range a {
			if v == int32(i) {
				t.Fatalf("node %d gained a self-edge", i)
			}
			if _, dup := seen[v]; dup {
				t.Fatalf("node %d gained duplicate edge to %d", i, v)
			}
			seen[v] = struct{}{}
		}
	}
}

func TestInterInsertMakesReverseEdgesWhereRoomAllows(t *testing.T) {
	base := interTestBase(t)
	adj := buildOneSided(t, base, 20, 30, 25)
	// Record the forward edges, run interInsert with a generous cap, and
	// verify reverse edges were added wherever the target had room.
	type edge struct{ from, to int32 }
	var forward []edge
	for i, a := range adj {
		for _, v := range a {
			forward = append(forward, edge{int32(i), v})
		}
	}
	interInsertTest(adj, base, 1000) // cap never binds
	has := func(from, to int32) bool {
		for _, v := range adj[from] {
			if v == to {
				return true
			}
		}
		return false
	}
	for _, e := range forward {
		if !has(e.to, e.from) {
			t.Fatalf("reverse edge %d→%d missing despite unlimited cap", e.to, e.from)
		}
	}
}

func TestSearchWithHopsReportsWork(t *testing.T) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 500, Queries: 5, GTK: 5, Dim: 16, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	knn, err := knngraph.BuildExact(ds.Base, 20)
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := NSGBuild(knn, ds.Base, BuildParams{L: 40, M: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := idx.Query(NewSearchContext(), ds.Queries.Row(0), Query{K: 5, L: 30})
	if res.Hops <= 0 {
		t.Error("hops not recorded")
	}
	if res.Hops > ds.Base.Rows {
		t.Errorf("hops %d exceeds n", res.Hops)
	}
	if len(res.Neighbors) != 5 {
		t.Errorf("neighbors = %d, want 5", len(res.Neighbors))
	}
}

func TestBuildStatsReported(t *testing.T) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 400, Queries: 1, GTK: 1, Dim: 16, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	knn, err := knngraph.BuildExact(ds.Base, 15)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := NSGBuild(knn, ds.Base, BuildParams{L: 30, M: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TreePasses < 1 {
		t.Error("tree repair must run at least one DFS pass")
	}
	if stats.TreeRepairEdges < 0 {
		t.Error("negative repair edges")
	}
}

// TestFreezeSearchMatchesGraphSearch: a search over the frozen flat layout
// (NSG.Query) matches Algorithm 1 over the ragged adjacency lists it was
// flattened from, result for result and distance evaluation for evaluation.
func TestFreezeSearchMatchesGraphSearch(t *testing.T) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 600, Queries: 30, GTK: 10, Dim: 32, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	knn, err := knngraph.BuildExact(ds.Base, 25)
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := NSGBuild(knn, ds.Base, BuildParams{L: 40, M: 25, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewSearchContext()
	adj := idx.flat.ToGraph().Adj
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		q := ds.Queries.Row(qi)
		var ca, cb vecmath.Counter
		a := SearchOnGraph(adj, ds.Base, q, []int32{idx.Navigating}, 10, 50, &ca, nil).Neighbors
		b := idx.Query(ctx, q, Query{K: 10, L: 50, Counter: &cb}).Neighbors
		if len(a) != len(b) {
			t.Fatalf("query %d: lengths differ", qi)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d pos %d: graph %+v vs flat %+v", qi, i, a[i], b[i])
			}
		}
		// Counters must agree too (identical traversal).
		if ca.Count() != cb.Count() {
			t.Fatalf("query %d: distance computations differ: %d vs %d", qi, ca.Count(), cb.Count())
		}
	}
}
