package nsg

import (
	"testing"

	"repro/internal/dataset"
)

// TestBuildPipelineRecallParity pins the quality of the full refactored
// construction pipeline (flat NN-Descent → scratch-reusing Algorithm 2) on
// a fixed seeded workload: recall@10 under fixed queries must stay at the
// level the pre-refactor pipeline delivered on this exact dataset (both
// measured 1.0000; the gate leaves margin only for NN-Descent's benign
// parallel nondeterminism). A structural regression in
// any build phase — sampling, local joins, edge selection, reverse
// insertion, repair — shows up here as a recall drop.
func TestBuildPipelineRecallParity(t *testing.T) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 2000, Queries: 100, GTK: 10, Dim: 32, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildFromFlat(ds.Base.Data, ds.Base.Dim, Options{
		GraphK: 20, BuildL: 50, MaxDegree: 30, SearchL: 60, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	k := 10
	got := make([][]int32, ds.Queries.Rows)
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		ids, _ := idx.SearchWithPool(ds.Queries.Row(qi), k, 60)
		got[qi] = ids
	}
	recall := dataset.MeanRecall(got, ds.GT, k)
	t.Logf("pipeline recall@10 = %.4f", recall)
	if recall < 0.95 {
		t.Errorf("build pipeline recall@10 = %.4f, want >= 0.95 (pre-refactor parity)", recall)
	}
}

// TestBuildStatsExposed checks the public per-phase timing breakdown: a
// fresh build must report a positive total and phase timings consistent
// with it, and a compacted index reports its rebuild's.
func TestBuildStatsExposed(t *testing.T) {
	vecs := randomVectors(600, 16, 3)
	idx, err := Build(vecs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := idx.BuildStats()
	if st.Total <= 0 {
		t.Fatal("BuildStats.Total must be positive after Build")
	}
	if st.KNNGraph <= 0 || st.Collect <= 0 {
		t.Errorf("phase timings missing: knn=%v collect=%v", st.KNNGraph, st.Collect)
	}
	phaseSum := st.KNNGraph + st.Navigate + st.Collect + st.InterInsert + st.Repair + st.Flatten
	if phaseSum > st.Total {
		t.Errorf("phase sum %v exceeds total %v", phaseSum, st.Total)
	}
	if st.TreePasses < 1 {
		t.Error("tree repair must record at least one pass")
	}

	// Compact rebuilds the survivors through the build pipeline, so the
	// recorded timings become that rebuild's.
	if err := idx.Delete(5); err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Compact(); err != nil {
		t.Fatal(err)
	}
	if c := idx.BuildStats(); c.Total <= 0 || c.Collect <= 0 || c == st {
		t.Errorf("BuildStats after Compact = %+v, want the rebuild's", c)
	}
}
