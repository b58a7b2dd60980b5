package ivfpq

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vecmath"
)

func TestKMeansBasic(t *testing.T) {
	// Two well-separated blobs; k=2 must recover both.
	rng := rand.New(rand.NewSource(1))
	data := vecmath.NewMatrix(200, 2)
	for i := 0; i < 100; i++ {
		data.Row(i)[0] = float32(rng.NormFloat64()*0.1 + 0)
		data.Row(i)[1] = float32(rng.NormFloat64()*0.1 + 0)
	}
	for i := 100; i < 200; i++ {
		data.Row(i)[0] = float32(rng.NormFloat64()*0.1 + 10)
		data.Row(i)[1] = float32(rng.NormFloat64()*0.1 + 10)
	}
	cents := kmeans(data, 2, 20, rng)
	if cents.Rows != 2 {
		t.Fatalf("centroids = %d, want 2", cents.Rows)
	}
	near := func(c []float32, x float32) bool {
		return (c[0]-x)*(c[0]-x)+(c[1]-x)*(c[1]-x) < 1
	}
	a, b := cents.Row(0), cents.Row(1)
	ok := (near(a, 0) && near(b, 10)) || (near(a, 10) && near(b, 0))
	if !ok {
		t.Errorf("centroids %v %v do not match blobs at 0 and 10", a, b)
	}
}

func TestKMeansKLargerThanN(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := vecmath.NewMatrix(3, 2)
	cents := kmeans(data, 10, 5, rng)
	if cents.Rows != 3 {
		t.Errorf("k must clamp to n: got %d", cents.Rows)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(vecmath.Matrix{Dim: 8}, DefaultParams()); err == nil {
		t.Error("expected error on empty base")
	}
	base := vecmath.NewMatrix(100, 10)
	p := DefaultParams()
	p.M = 8 // 10 % 8 != 0
	if _, err := Build(base, p); err == nil {
		t.Error("expected error on dim not divisible by M")
	}
}

func TestSearchRecallWithRerank(t *testing.T) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 2000, Queries: 40, GTK: 10, Dim: 32, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	p := Params{NList: 32, M: 8, KSub: 64, TrainIters: 8, TrainSample: 2000, Seed: 1}
	idx, err := Build(ds.Base, p)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]int32, ds.Queries.Rows)
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		res := idx.Search(ds.Queries.Row(qi), 10, 8, 100, nil)
		ids := make([]int32, len(res))
		for i, n := range res {
			ids[i] = n.ID
		}
		got[qi] = ids
	}
	if recall := dataset.MeanRecall(got, ds.GT, 10); recall < 0.80 {
		t.Errorf("IVFPQ recall@10 = %.3f, want >= 0.80 with 8/32 probes", recall)
	}
}

func TestMoreProbesMoreRecall(t *testing.T) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 1500, Queries: 30, GTK: 10, Dim: 32, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(ds.Base, Params{NList: 32, M: 8, KSub: 64, TrainIters: 8, TrainSample: 1500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	recallAt := func(nprobe int) float64 {
		got := make([][]int32, ds.Queries.Rows)
		for qi := 0; qi < ds.Queries.Rows; qi++ {
			res := idx.Search(ds.Queries.Row(qi), 10, nprobe, 80, nil)
			ids := make([]int32, len(res))
			for i, n := range res {
				ids[i] = n.ID
			}
			got[qi] = ids
		}
		return dataset.MeanRecall(got, ds.GT, 10)
	}
	lo, hi := recallAt(1), recallAt(16)
	if hi < lo {
		t.Errorf("recall fell with more probes: %.3f -> %.3f", lo, hi)
	}
	if hi < 0.75 {
		t.Errorf("recall at nprobe=16 = %.3f, too low", hi)
	}
}

// TestSearchCellsSplitsProbes: disjoint cell ranges merged answer at least
// as well as one search over their union, rank by rank: each range keeps
// its own rerank best, so the union holds every candidate the one search
// reranks.
func TestSearchCellsSplitsProbes(t *testing.T) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 1500, Queries: 30, GTK: 10, Dim: 32, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(ds.Base, Params{NList: 32, M: 8, KSub: 64, TrainIters: 8, TrainSample: 1500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		q := ds.Queries.Row(qi)
		want := idx.Search(q, 10, 12, 40, nil)
		var parts [][]vecmath.Neighbor
		for _, r := range [][2]int{{0, 5}, {5, 10}, {10, 12}} {
			parts = append(parts, idx.SearchCells(q, 10, r[0], r[1], 40, nil))
		}
		got := vecmath.MergeNeighborLists(10, parts...)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results split, %d whole", qi, len(got), len(want))
		}
		for i := range want {
			if got[i].Dist > want[i].Dist {
				t.Fatalf("query %d rank %d: split %v farther than whole %v", qi, i, got[i], want[i])
			}
		}
	}
}

func TestCompressedIndexSmallerThanRaw(t *testing.T) {
	// PQ's selling point: the code footprint is far below the raw vectors.
	ds, err := dataset.SIFTLike(dataset.Config{N: 1000, Queries: 1, GTK: 1, Dim: 32, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(ds.Base, Params{NList: 16, M: 8, KSub: 64, TrainIters: 5, TrainSample: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	raw := int64(ds.Base.Rows) * int64(ds.Base.Dim) * 4
	if idx.IndexBytes() >= raw {
		t.Errorf("IVFPQ index %d >= raw vectors %d", idx.IndexBytes(), raw)
	}
}

func TestCellAssignmentsConsistent(t *testing.T) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 500, Queries: 1, GTK: 1, Dim: 16, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(ds.Base, Params{NList: 8, M: 4, KSub: 32, TrainIters: 5, TrainSample: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Every base id appears in exactly one inverted list, the one matching
	// cellOf.
	seen := make(map[int32]int32)
	for c, list := range idx.lists {
		for _, id := range list {
			if prev, dup := seen[id]; dup {
				t.Fatalf("id %d in lists %d and %d", id, prev, c)
			}
			seen[id] = int32(c)
		}
	}
	if len(seen) != ds.Base.Rows {
		t.Fatalf("%d ids in lists, want %d", len(seen), ds.Base.Rows)
	}
	for id, c := range seen {
		if idx.cellOf[id] != c {
			t.Fatalf("id %d: cellOf=%d but stored in list %d", id, idx.cellOf[id], c)
		}
	}
}
