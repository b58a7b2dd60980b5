package dpg

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/graphutil"
	"repro/internal/knngraph"
	"repro/internal/vecmath"
)

func TestBuildUndirected(t *testing.T) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 400, Queries: 1, GTK: 1, Dim: 16, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	knn, err := knngraph.BuildExact(ds.Base, 20)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(knn, ds.Base, Params{Keep: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Compensation makes the graph undirected: every edge has its reverse.
	for i := range idx.Graph.Adj {
		for _, v := range idx.Graph.Adj[i] {
			if !idx.Graph.HasEdge(v, int32(i)) {
				t.Fatalf("edge %d→%d has no reverse", i, v)
			}
		}
	}
}

func TestReverseCompensationInflatesDegree(t *testing.T) {
	// Table 2's DPG pathology: the max degree after compensation exceeds
	// the kept degree, sometimes dramatically on skewed data.
	ds, err := dataset.ECommerceLike(dataset.Config{N: 600, Queries: 1, GTK: 1, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	knn, err := knngraph.BuildExact(ds.Base, 20)
	if err != nil {
		t.Fatal(err)
	}
	keep := 10
	idx, err := Build(knn, ds.Base, Params{Keep: keep, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := idx.Graph.Degrees(); st.Max <= keep {
		t.Errorf("max degree %d not inflated beyond keep=%d", st.Max, keep)
	}
}

func TestSearchRecall(t *testing.T) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 800, Queries: 40, GTK: 10, Dim: 32, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	knn, err := knngraph.BuildExact(ds.Base, 20)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(knn, ds.Base, Params{Keep: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]int32, ds.Queries.Rows)
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		res := idx.Search(ds.Queries.Row(qi), 10, 80, nil)
		ids := make([]int32, len(res))
		for i, n := range res {
			ids[i] = n.ID
		}
		got[qi] = ids
	}
	if recall := dataset.MeanRecall(got, ds.GT, 10); recall < 0.88 {
		t.Errorf("DPG recall@10 = %.3f, want >= 0.88", recall)
	}
}

func TestDiversifyKeepsNearest(t *testing.T) {
	base := vecmath.MatrixFromSlices([][]float32{
		{0, 0}, {1, 0}, {2, 0}, {0, 1},
	})
	kept := new(worker).diversify(base, 0, []int32{1, 3, 2}, 2)
	if len(kept) != 2 || kept[0] != 1 {
		t.Errorf("diversify = %v, nearest (1) must be kept first", kept)
	}
	// With keep=2 the second pick should be the orthogonal direction (3),
	// not the collinear 2.
	if kept[1] != 3 {
		t.Errorf("diversify second pick = %d, want orthogonal 3", kept[1])
	}
}

func TestValidation(t *testing.T) {
	if _, err := Build(graphutil.New(5), vecmath.NewMatrix(3, 2), Params{}); err == nil {
		t.Error("expected error on size mismatch")
	}
}
