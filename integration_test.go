package nsg

// Integration tests: the full public-API pipeline (generate → build →
// search → score) on every dataset family the paper evaluates, plus
// cross-module consistency checks that only make sense above the unit
// level.

import (
	"os"

	"testing"

	"repro/internal/dataset"
	"repro/internal/scan"
	"repro/internal/vecmath"
)

func TestIntegrationAllGenerators(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cases := []struct {
		name      string
		gen       func(dataset.Config) (dataset.Dataset, error)
		dim       int
		minRecall float64
	}{
		{"SIFTLike", dataset.SIFTLike, 0, 0.95},
		{"GISTLike", dataset.GISTLike, 0, 0.90},
		{"DEEPLike", dataset.DEEPLike, 0, 0.95},
		{"ECommerceLike", dataset.ECommerceLike, 0, 0.95},
		{"Uniform32", dataset.Uniform, 32, 0.90},
		{"Gaussian32", dataset.Gaussian, 32, 0.90},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := 2000
			if tc.name == "GISTLike" {
				n = 800 // 960 dims dominate runtime
			}
			ds, err := tc.gen(dataset.Config{N: n, Queries: 40, GTK: 10, Dim: tc.dim, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.GraphK = 40
			opts.BuildL = 60
			opts.MaxDegree = 30
			opts.ExactKNN = true
			idx, err := BuildFromFlat(ds.Base.Data, ds.Base.Dim, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := make([][]int32, ds.Queries.Rows)
			for qi := 0; qi < ds.Queries.Rows; qi++ {
				ids, _ := idx.SearchWithPool(ds.Queries.Row(qi), 10, 100)
				got[qi] = ids
			}
			recall := dataset.MeanRecall(got, ds.GT, 10)
			if recall < tc.minRecall {
				t.Errorf("recall@10 = %.3f, want >= %.2f", recall, tc.minRecall)
			}
		})
	}
}

// TestIntegrationNSGBeatsScanWork asserts the headline efficiency claim at
// test scale: NSG reaches 90%+ recall while computing distances to a small
// fraction of the base set.
func TestIntegrationNSGBeatsScanWork(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ds, err := dataset.SIFTLike(dataset.Config{N: 4000, Queries: 50, GTK: 10, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.GraphK = 40
	opts.BuildL = 60
	opts.MaxDegree = 30
	opts.ExactKNN = true
	idx, err := BuildFromFlat(ds.Base.Data, ds.Base.Dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	var counter vecmath.Counter
	got := make([][]int32, ds.Queries.Rows)
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		ids, _ := idx.SearchWithPool(ds.Queries.Row(qi), 10, 60)
		got[qi] = ids
		// count the same search's work
		idx.s.shards[0].Search(ds.Queries.Row(qi), 10, 60, &counter)
	}
	recall := dataset.MeanRecall(got, ds.GT, 10)
	if recall < 0.90 {
		t.Fatalf("recall = %.3f", recall)
	}
	perQuery := float64(counter.Count()) / float64(ds.Queries.Rows)
	if frac := perQuery / float64(ds.Base.Rows); frac > 0.25 {
		t.Errorf("NSG computed distances to %.0f%% of the base set; want a small fraction", 100*frac)
	}
}

// TestIntegrationShardedMatchesMonolithicQuality compares a 4-shard NSG
// against a single NSG on the same corpus: recall at equal pool size must
// be comparable (the Section 4.2 deployment argument).
func TestIntegrationShardedMatchesMonolithicQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ds, err := dataset.DEEPLike(dataset.Config{N: 3000, Queries: 40, GTK: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{GraphK: 30, BuildL: 40, MaxDegree: 30, ExactKNN: true, Seed: 1}
	mono, err := BuildFromFlat(ds.Base.Data, ds.Base.Dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer mono.Close()
	sharded, err := BuildShardedFromFlat(ds.Base.Data, ds.Base.Dim, ShardedOptions{Shards: 4, Shard: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	recallOf := func(x *Index) float64 {
		got := make([][]int32, ds.Queries.Rows)
		for qi := 0; qi < ds.Queries.Rows; qi++ {
			got[qi], _ = x.SearchWithPool(ds.Queries.Row(qi), 10, 60)
		}
		return dataset.MeanRecall(got, ds.GT, 10)
	}
	rm, rs := recallOf(mono), recallOf(sharded)
	if rs < rm-0.05 {
		t.Errorf("sharded recall %.3f trails monolithic %.3f by more than 0.05", rs, rm)
	}
	if rs < 0.90 {
		t.Errorf("sharded recall %.3f too low", rs)
	}
}

// TestIntegrationExactMatchesScan cross-checks ground truth machinery: the
// scan baseline must agree exactly with dataset.GroundTruth.
func TestIntegrationExactMatchesScan(t *testing.T) {
	ds, err := dataset.Uniform(dataset.Config{N: 500, Queries: 10, GTK: 5, Dim: 12, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		res := scan.Search(ds.Base, ds.Queries.Row(qi), 5, nil)
		for i, n := range res {
			if n.ID != ds.GT[qi][i] {
				t.Fatalf("query %d pos %d: scan %d vs GT %d", qi, i, n.ID, ds.GT[qi][i])
			}
		}
	}
}

// TestIntegrationLargeScale is an optional heavyweight run gated by
// REPRO_LARGE=1: a 60k-point build exercising the NN-Descent path at a
// scale closer to the paper's regime.
func TestIntegrationLargeScale(t *testing.T) {
	if os.Getenv("REPRO_LARGE") == "" {
		t.Skip("set REPRO_LARGE=1 to run the 60k-point build")
	}
	ds, err := dataset.SIFTLike(dataset.Config{N: 60000, Queries: 100, GTK: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.GraphK = 40
	opts.BuildL = 60
	opts.MaxDegree = 40
	idx, err := BuildFromFlat(ds.Base.Data, ds.Base.Dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]int32, ds.Queries.Rows)
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		ids, _ := idx.SearchWithPool(ds.Queries.Row(qi), 10, 100)
		got[qi] = ids
	}
	if recall := dataset.MeanRecall(got, ds.GT, 10); recall < 0.95 {
		t.Errorf("large-scale recall@10 = %.3f, want >= 0.95", recall)
	}
}
