package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/graphutil"
	"repro/internal/knngraph"
	"repro/internal/vecmath"
)

func buildTestNSG(t *testing.T, n, dim int, seed int64) (*NSG, dataset.Dataset) {
	t.Helper()
	ds, err := dataset.SIFTLike(dataset.Config{N: n, Queries: 50, GTK: 10, Dim: dim, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	knn, err := knngraph.BuildExact(ds.Base, 25)
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := NSGBuild(knn, ds.Base, BuildParams{L: 40, M: 25, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return idx, ds
}

func TestNSGBuildBasicInvariants(t *testing.T) {
	idx, _ := buildTestNSG(t, 800, 32, 1)
	st := idx.Stats()
	if st.N != 800 {
		t.Fatalf("N = %d", st.N)
	}
	if st.MaxDegree > 25+1 {
		// +1: the DFS repair may append one edge past the cap.
		t.Errorf("max degree %d exceeds cap", st.MaxDegree)
	}
	if st.AvgDegree <= 0 {
		t.Error("average degree must be positive")
	}
	for i, adj := range idx.flat.ToGraph().Adj {
		seen := map[int32]struct{}{}
		for _, v := range adj {
			if v == int32(i) {
				t.Fatalf("node %d has a self-edge", i)
			}
			if _, dup := seen[v]; dup {
				t.Fatalf("node %d has duplicate edge to %d", i, v)
			}
			seen[v] = struct{}{}
			if int(v) >= st.N || v < 0 {
				t.Fatalf("node %d has out-of-range edge %d", i, v)
			}
		}
	}
}

func TestNSGFullyReachable(t *testing.T) {
	// The paper's connectivity guarantee (Table 4: SCC=1 for NSG): every
	// node must be reachable from the navigating node after tree repair.
	idx, _ := buildTestNSG(t, 600, 16, 2)
	if got := idx.flat.ReachableFrom(idx.Navigating); got != 600 {
		t.Errorf("reachable = %d, want 600", got)
	}
}

func TestNSGHighRecall(t *testing.T) {
	idx, ds := buildTestNSG(t, 1000, 32, 3)
	k := 10
	got := make([][]int32, ds.Queries.Rows)
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		res := idx.Search(ds.Queries.Row(qi), k, 60, nil)
		ids := make([]int32, len(res))
		for i, n := range res {
			ids[i] = n.ID
		}
		got[qi] = ids
	}
	recall := dataset.MeanRecall(got, ds.GT, k)
	if recall < 0.95 {
		t.Errorf("NSG recall@10 = %.3f, want >= 0.95", recall)
	}
}

func TestNSGRecallImprovesWithPoolSize(t *testing.T) {
	// The l knob trades time for accuracy; recall must be monotone-ish.
	idx, ds := buildTestNSG(t, 1000, 32, 4)
	k := 10
	recallAt := func(l int) float64 {
		got := make([][]int32, ds.Queries.Rows)
		for qi := 0; qi < ds.Queries.Rows; qi++ {
			res := idx.Search(ds.Queries.Row(qi), k, l, nil)
			ids := make([]int32, len(res))
			for i, n := range res {
				ids[i] = n.ID
			}
			got[qi] = ids
		}
		return dataset.MeanRecall(got, ds.GT, k)
	}
	lo, hi := recallAt(10), recallAt(100)
	if hi < lo-0.02 {
		t.Errorf("recall at l=100 (%.3f) below recall at l=10 (%.3f)", hi, lo)
	}
	if hi < 0.97 {
		t.Errorf("recall at l=100 = %.3f, want >= 0.97", hi)
	}
}

func TestNSGNavigatingNodeNearCentroid(t *testing.T) {
	idx, ds := buildTestNSG(t, 500, 16, 5)
	centroid := vecmath.Centroid(ds.Base)
	navDist := vecmath.L2(centroid, ds.Base.Row(int(idx.Navigating)))
	// The navigating node must be among the closest few percent of points
	// to the centroid (it is found by approximate search).
	closer := 0
	for i := 0; i < ds.Base.Rows; i++ {
		if vecmath.L2(centroid, ds.Base.Row(i)) < navDist {
			closer++
		}
	}
	if closer > ds.Base.Rows/10 {
		t.Errorf("%d points closer to centroid than navigating node", closer)
	}
}

func TestNSGBuildValidation(t *testing.T) {
	base := vecmath.NewMatrix(10, 4)
	knn := graphutil.New(5) // wrong node count
	if _, _, err := NSGBuild(knn, base, BuildParams{L: 40, M: 30, Seed: 1}); err == nil {
		t.Error("expected error for mismatched kNN graph")
	}
	if _, _, err := NSGBuild(graphutil.New(0), vecmath.Matrix{Dim: 4}, BuildParams{L: 40, M: 30, Seed: 1}); err == nil {
		t.Error("expected error for empty base")
	}
}

func TestNSGDeterministicBuild(t *testing.T) {
	// Same kNN graph + same seed must give the same navigating node and,
	// for single-threaded determinism of search, the same search results.
	ds, err := dataset.SIFTLike(dataset.Config{N: 300, Queries: 5, GTK: 5, Dim: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	knn, err := knngraph.BuildExact(ds.Base, 10)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := NSGBuild(knn, ds.Base, BuildParams{L: 20, M: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := NSGBuild(knn, ds.Base, BuildParams{L: 20, M: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Navigating != b.Navigating {
		t.Errorf("navigating node differs: %d vs %d", a.Navigating, b.Navigating)
	}
	ga, gb := a.flat.ToGraph(), b.flat.ToGraph()
	for i := range ga.Adj {
		if len(ga.Adj[i]) != len(gb.Adj[i]) {
			t.Fatalf("node %d degree differs between identical builds", i)
		}
		for j := range ga.Adj[i] {
			if ga.Adj[i][j] != gb.Adj[i][j] {
				t.Fatalf("node %d adjacency differs between identical builds", i)
			}
		}
	}
}

func TestNSGSparserThanKNNGraph(t *testing.T) {
	// Motivation aspect (2): the NSG out-degree must be far below the kNN
	// graph's k at equal or better recall.
	ds, err := dataset.SIFTLike(dataset.Config{N: 800, Queries: 10, GTK: 5, Dim: 32, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	k := 30
	knn, err := knngraph.BuildExact(ds.Base, k)
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := NSGBuild(knn, ds.Base, BuildParams{L: 30, M: 25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if avg := idx.Stats().AvgDegree; avg >= float64(k) {
		t.Errorf("NSG average degree %.1f not below kNN k=%d", avg, k)
	}
}

func TestNSGNNGPreservation(t *testing.T) {
	// Table 2's NN% for NSG tracks the kNN graph's NN% (99%+ with an exact
	// graph): the edge rule always accepts the first (nearest) candidate.
	ds, err := dataset.SIFTLike(dataset.Config{N: 500, Queries: 1, GTK: 1, Dim: 16, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	knn, err := knngraph.BuildExact(ds.Base, 10)
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := NSGBuild(knn, ds.Base, BuildParams{L: 30, M: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nn := graphutil.ExactNearest(ds.Base)
	if pct := idx.flat.ToGraph().NNPercent(nn); pct < 99 {
		t.Errorf("NN%% = %.1f, want >= 99 with exact kNN input", pct)
	}
}

func TestNSGBuildWithNNDescentInput(t *testing.T) {
	// End-to-end with the approximate builder, as the paper does at scale.
	ds, err := dataset.SIFTLike(dataset.Config{N: 900, Queries: 40, GTK: 10, Dim: 32, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	knn, err := knngraph.BuildNNDescent(ds.Base, knngraph.DefaultParams(25))
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := NSGBuild(knn, ds.Base, BuildParams{L: 40, M: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.flat.ReachableFrom(idx.Navigating); got != 900 {
		t.Errorf("reachable = %d, want 900", got)
	}
	got := make([][]int32, ds.Queries.Rows)
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		res := idx.Search(ds.Queries.Row(qi), 10, 60, nil)
		ids := make([]int32, len(res))
		for i, n := range res {
			ids[i] = n.ID
		}
		got[qi] = ids
	}
	if recall := dataset.MeanRecall(got, ds.GT, 10); recall < 0.85 {
		t.Errorf("recall with NN-Descent input = %.3f, want >= 0.85", recall)
	}
}
