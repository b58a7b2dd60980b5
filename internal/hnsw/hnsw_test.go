package hnsw

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/vecmath"
)

func testDataset(t *testing.T, n int) dataset.Dataset {
	t.Helper()
	ds, err := dataset.SIFTLike(dataset.Config{N: n, Queries: 40, GTK: 10, Dim: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestBuildBasic(t *testing.T) {
	ds := testDataset(t, 500)
	idx, err := Build(ds.Base, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if idx.Layers() < 1 {
		t.Fatal("no layers built")
	}
	bottom := idx.Layer(0)
	if bottom.N() != 500 {
		t.Fatalf("bottom layer has %d nodes", bottom.N())
	}
	st := bottom.Degrees()
	if st.Max > 2*16 {
		t.Errorf("bottom-layer max degree %d exceeds 2M", st.Max)
	}
	if st.Avg <= 0 {
		t.Error("bottom layer has no edges")
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(vecmath.Matrix{Dim: 4}, DefaultParams()); err == nil {
		t.Error("expected error on empty base")
	}
	// M = 1 makes the level multiplier 1/ln(M) infinite; it must be
	// rejected, not built into a graph with no edges.
	ds := testDataset(t, 50)
	for _, m := range []int{1, 0} {
		if _, err := Build(ds.Base, Params{M: m, EfConstruction: 20, Seed: 1}); err == nil {
			t.Errorf("expected error on M = %d", m)
		}
	}
}

func TestSearchRecall(t *testing.T) {
	ds := testDataset(t, 1000)
	idx, err := Build(ds.Base, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	k := 10
	got := make([][]int32, ds.Queries.Rows)
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		res := idx.Search(ds.Queries.Row(qi), k, 80, nil)
		ids := make([]int32, len(res))
		for i, n := range res {
			ids[i] = n.ID
		}
		got[qi] = ids
	}
	if recall := dataset.MeanRecall(got, ds.GT, k); recall < 0.93 {
		t.Errorf("HNSW recall@10 = %.3f, want >= 0.93", recall)
	}
}

func TestSearchEfControlsAccuracy(t *testing.T) {
	ds := testDataset(t, 800)
	idx, err := Build(ds.Base, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	recallAt := func(ef int) float64 {
		got := make([][]int32, ds.Queries.Rows)
		for qi := 0; qi < ds.Queries.Rows; qi++ {
			res := idx.Search(ds.Queries.Row(qi), 10, ef, nil)
			ids := make([]int32, len(res))
			for i, n := range res {
				ids[i] = n.ID
			}
			got[qi] = ids
		}
		return dataset.MeanRecall(got, ds.GT, 10)
	}
	if lo, hi := recallAt(10), recallAt(120); hi < lo-0.02 {
		t.Errorf("recall should not fall as ef grows: ef10=%.3f ef120=%.3f", lo, hi)
	}
}

func TestBottomLayerReachability(t *testing.T) {
	// Table 4 reports HNSW SCC=1: every node reachable from the entry
	// point through the bottom layer.
	ds := testDataset(t, 600)
	idx, err := Build(ds.Base, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Layer(0).ReachableFrom(idx.Entry()); got != 600 {
		t.Errorf("reachable from entry = %d, want 600", got)
	}
}

func TestCounterCountsWork(t *testing.T) {
	ds := testDataset(t, 300)
	idx, err := Build(ds.Base, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var c vecmath.Counter
	idx.Search(ds.Queries.Row(0), 5, 30, &c)
	if c.Count() == 0 {
		t.Error("search performed no counted distance computations")
	}
	if c.Count() >= uint64(ds.Base.Rows) {
		t.Errorf("HNSW checked %d points — no better than brute force", c.Count())
	}
}

func TestIndexBytesLargerThanBottomLayer(t *testing.T) {
	// The multi-layer structure must cost more than its bottom layer alone:
	// the index-size disadvantage NSG exploits in Table 2.
	ds := testDataset(t, 800)
	idx, err := Build(ds.Base, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	bottomOnly := int64(idx.Layer(0).N()) * int64(idx.Layer(0).Degrees().Max) * 4
	if idx.IndexBytes() < bottomOnly {
		t.Errorf("total index %d < bottom layer %d", idx.IndexBytes(), bottomOnly)
	}
}

func TestSingleElement(t *testing.T) {
	base := vecmath.MatrixFromSlices([][]float32{{1, 2}})
	idx, err := Build(base, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res := idx.Search([]float32{0, 0}, 1, 10, nil)
	if len(res) != 1 || res[0].ID != 0 {
		t.Errorf("single-element search = %+v", res)
	}
}
