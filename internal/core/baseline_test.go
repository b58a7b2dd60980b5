package core

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knngraph"
	"repro/internal/vecmath"
)

func TestNSGNaive(t *testing.T) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 600, Queries: 30, GTK: 10, Dim: 32, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	knn, err := knngraph.BuildExact(ds.Base, 20)
	if err != nil {
		t.Fatal(err)
	}
	g, err := PruneKNN(knn, ds.Base, 20, 15)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 600 {
		t.Fatalf("N = %d", g.N())
	}
	if st := g.Degrees(); st.Max > 15 {
		t.Errorf("naive max degree %d exceeds cap 15", st.Max)
	}
	// It still answers queries, just worse than full NSG at equal l.
	naive := &RandomStart{Graph: g, Base: ds.Base, Starts: 1, Rng: rand.New(rand.NewSource(1))}
	res := naive.Search(ds.Queries.Row(0), 10, 50, nil)
	if len(res) != 10 {
		t.Fatalf("naive search returned %d results", len(res))
	}

	if _, err := PruneKNN(knn, vecmath.NewMatrix(5, 32), 20, 15); err == nil {
		t.Error("expected error on size mismatch")
	}
	if _, err := PruneKNN(knn, ds.Base, 20, 0); err == nil {
		t.Error("expected error on m=0")
	}
	if _, err := PruneKNN(knn, ds.Base, 0, 15); err == nil {
		t.Error("expected error on width=0")
	}
}

func TestRandomStartSearchRecall(t *testing.T) {
	// KGraph: Algorithm 1 directly on an unpruned kNN graph from three
	// random starts.
	ds, err := dataset.Uniform(dataset.Config{N: 800, Queries: 40, GTK: 10, Dim: 16, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	knn, err := knngraph.BuildExact(ds.Base, 20)
	if err != nil {
		t.Fatal(err)
	}
	idx := &RandomStart{Graph: knn, Base: ds.Base, Starts: 3, Rng: rand.New(rand.NewSource(1))}
	got := make([][]int32, ds.Queries.Rows)
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		res := idx.Search(ds.Queries.Row(qi), 10, 80, nil)
		ids := make([]int32, len(res))
		for i, n := range res {
			ids[i] = n.ID
		}
		got[qi] = ids
	}
	if recall := dataset.MeanRecall(got, ds.GT, 10); recall < 0.90 {
		t.Errorf("KGraph recall@10 = %.3f, want >= 0.90", recall)
	}
}
