package nsg

import (
	"testing"

	"repro/internal/dataset"
)

// TestRecallLedger holds recall@10 on inputs the paper's argument does not
// cover, at floors that only rise (ROADMAP item 34). Each row builds a
// seeded generated corpus with DefaultOptions(), searches every query
// through SearchWithStats at pool L, and holds two measured values. A row
// with from < 100 builds from the first from% of the base rows and Adds the
// rest through the live path before a Flush, so it holds the graphs the
// incremental insert grows:
//   - recall@10, which may not fall more than 0.01 below it;
//   - evaluations per query, which may not rise more than 1% above it
//     (they repeat exactly at a fixed seed, so the ceiling can be tight).
//
// A change that fixes a row raises its values; one that lowers a recall
// names the row as a regression. `go test -run TestRecallLedger -v .`
// prints the table, with the queries that find none of their neighbours.
func TestRecallLedger(t *testing.T) {
	rows := []struct {
		name   string
		gen    func(dataset.Config) (dataset.Dataset, error)
		cfg    dataset.Config
		from   int // percent of the base rows built; Add inserts the rest
		l      int
		recall float64 // measured recall@10
		evals  float64 // measured distance evaluations per query
		owner  string  // the ROADMAP item whose fix raises the row
	}{
		// Islands: the GIST-like kNN graph has one weakly connected
		// component per generated cluster, and the navigating node enters
		// only the islands its walk passes through.
		{"islands/gist2000/seed1", dataset.GISTLike, dataset.Config{N: 2000, Queries: 200, GTK: 10, Seed: 1}, 100, 60, 0.825, 188.60, "33"},
		{"islands/gist2000/seed2", dataset.GISTLike, dataset.Config{N: 2000, Queries: 200, GTK: 10, Seed: 2}, 100, 60, 0.825, 177.23, "33"},
		{"islands/gist2000/seed3", dataset.GISTLike, dataset.Config{N: 2000, Queries: 200, GTK: 10, Seed: 3}, 100, 60, 0.970, 165.69, "33"},
		{"islands/gist2000/seed4", dataset.GISTLike, dataset.Config{N: 2000, Queries: 200, GTK: 10, Seed: 4}, 100, 60, 0.525, 194.96, "33"},
		// Grown graphs: a tenth built, nine tenths inserted one at a time
		// by the drain (the paper's Section 5 incremental indexing).
		{"grown/sift4000/from10", dataset.SIFTLike, dataset.Config{N: 4000, Queries: 200, GTK: 10, Seed: 1}, 10, 30, 0.9995, 318.35, "24"},
		{"grown/deep4000/from10", dataset.DEEPLike, dataset.Config{N: 4000, Queries: 200, GTK: 10, Seed: 1}, 10, 30, 0.995, 345.42, "24"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			ds, err := row.gen(row.cfg)
			if err != nil {
				t.Fatal(err)
			}
			built := ds.Base.Rows * row.from / 100
			idx, err := BuildFromFlat(ds.Base.Data[:built*ds.Base.Dim], ds.Base.Dim, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer idx.Close()
			for i := built; i < ds.Base.Rows; i++ {
				if _, err := idx.Add(ds.Base.Row(i)); err != nil {
					t.Fatal(err)
				}
			}
			idx.Flush()
			var recall float64
			var evals uint64
			lost := 0
			for qi := range ds.Queries.Rows {
				ids, _, st := idx.SearchWithStats(ds.Queries.Row(qi), 10, row.l)
				r := dataset.Recall(ids, ds.GT[qi], 10)
				if r == 0 {
					lost++
				}
				recall += r
				evals += st.DistanceComputations
			}
			nq := float64(ds.Queries.Rows)
			recall /= nq
			perQ := float64(evals) / nq
			t.Logf("L=%d: recall@10 %.3f (floor %.3f), %d queries at recall 0, %.2f evaluations/query (ceiling %.2f); item %s",
				row.l, recall, row.recall-0.01, lost, perQ, row.evals*1.01, row.owner)
			if recall < row.recall-0.01 {
				t.Errorf("recall@10 %.3f fell below the floor %.3f (item %s)", recall, row.recall-0.01, row.owner)
			}
			if perQ > row.evals*1.01 {
				t.Errorf("%.2f evaluations/query rose above the ceiling %.2f (item %s)", perQ, row.evals*1.01, row.owner)
			}
		})
	}
}
