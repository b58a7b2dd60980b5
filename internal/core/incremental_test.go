package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/knngraph"
	"repro/internal/vecmath"
)

func incrementalFixture(t *testing.T, n int, seed int64) (*NSG, dataset.Dataset) {
	t.Helper()
	ds, err := dataset.SIFTLike(dataset.Config{N: n, Queries: 30, GTK: 10, Dim: 32, Seed: seed})
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

func TestInsertBasic(t *testing.T) {
	idx, ds := incrementalFixture(t, 400, 21)
	vec := make([]float32, ds.Base.Dim)
	copy(vec, ds.Base.Row(0))
	vec[0] += 1 // near node 0 but distinct
	id, err := idx.Insert(vec, InsertParams{})
	if err != nil {
		t.Fatal(err)
	}
	if id != 400 {
		t.Fatalf("id = %d, want 400", id)
	}
	if idx.Base.Rows != 401 || idx.FlatView().N() != 401 {
		t.Fatalf("size after insert: base %d graph %d", idx.Base.Rows, idx.FlatView().N())
	}
	// The new node must be reachable and findable.
	if got := idx.FlatView().ReachableFrom(idx.Navigating); got != 401 {
		t.Errorf("reachable = %d, want 401", got)
	}
	res := idx.Search(vec, 1, 40, nil)
	if res[0].ID != id {
		t.Errorf("self-search found %d, want %d", res[0].ID, id)
	}
}

func TestInsertDimensionMismatch(t *testing.T) {
	idx, _ := incrementalFixture(t, 100, 22)
	if _, err := idx.Insert(make([]float32, 5), InsertParams{}); err == nil {
		t.Error("expected dimension error")
	}
}

func TestInsertManyMaintainsQuality(t *testing.T) {
	// Build on half the data, insert the other half incrementally, and
	// require recall comparable to a batch build over everything.
	ds, err := dataset.SIFTLike(dataset.Config{N: 1200, Queries: 40, GTK: 10, Dim: 32, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	half := ds.Base.Slice(0, 600).Clone()
	knn, err := knngraph.BuildExact(half, 25)
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := NSGBuild(knn, half, BuildParams{L: 40, M: 25, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	for i := 600; i < 1200; i++ {
		if _, err := idx.Insert(ds.Base.Row(i), InsertParams{}); err != nil {
			t.Fatal(err)
		}
	}
	if idx.Base.Rows != 1200 {
		t.Fatalf("rows = %d", idx.Base.Rows)
	}
	if got := idx.FlatView().ReachableFrom(idx.Navigating); got != 1200 {
		t.Fatalf("reachable = %d, want 1200", got)
	}
	// Degree cap honored up to the +1 forced-link slack.
	for i, adj := range idx.FlatView().ToGraph().Adj {
		if len(adj) > 26 {
			t.Fatalf("node %d degree %d exceeds cap+1", i, len(adj))
		}
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
	if recall := dataset.MeanRecall(got, ds.GT, 10); recall < 0.90 {
		t.Errorf("incremental recall@10 = %.3f, want >= 0.90", recall)
	}
}

func TestTombstones(t *testing.T) {
	idx, ds := incrementalFixture(t, 500, 24)
	q := ds.Queries.Row(0)
	before := idx.Search(q, 5, 60, nil)
	ts := NewTombstones()
	ts.Delete(before[0].ID)
	ts.Delete(before[1].ID)
	ctx := NewSearchContext()
	after := idx.Query(ctx, q, Query{K: 5, L: 60, Dead: ts}).Neighbors
	if len(after) != 5 {
		t.Fatalf("got %d live results, want 5", len(after))
	}
	for _, n := range after {
		if ts.Deleted(n.ID) {
			t.Fatalf("tombstoned id %d returned", n.ID)
		}
	}
	// Survivors must match the untombstoned tail of the original ranking.
	if after[0].ID != before[2].ID {
		t.Errorf("first live result %d, want %d", after[0].ID, before[2].ID)
	}
	// Nil and empty tombstones are the plain search, bit for bit.
	for _, dead := range []*Tombstones{nil, NewTombstones()} {
		plain := idx.Query(ctx, q, Query{K: 5, L: 60, Dead: dead}).Neighbors
		for i := range plain {
			if plain[i] != before[i] {
				t.Fatalf("empty tombstones changed result %d: %v != %v", i, plain[i], before[i])
			}
		}
	}
}

// TestTombstonesBitmap pins the set's own contract: it grows to whatever id
// is deleted, reads ids it does not cover as live, counts each id once, and
// a clone shares nothing with its source.
func TestTombstonesBitmap(t *testing.T) {
	var null *Tombstones
	if null.Deleted(3) || null.Len() != 0 || null.Clone().Len() != 0 {
		t.Fatal("a nil set must read as empty")
	}
	ts := NewTombstones()
	ts.Delete(5)
	ts.Delete(5)
	ts.Delete(64) // second word
	ts.Delete(10_000)
	if ts.Len() != 3 {
		t.Fatalf("Len = %d after three distinct deletes (one repeated), want 3", ts.Len())
	}
	for _, c := range []struct {
		id   int32
		want bool
	}{{5, true}, {64, true}, {10_000, true}, {4, false}, {6, false}, {63, false}, {9_999, false}, {-1, false}, {-64, false}, {10_048, false}, {1 << 30, false}} {
		if got := ts.Deleted(c.id); got != c.want {
			t.Errorf("Deleted(%d) = %v, want %v", c.id, got, c.want)
		}
	}

	// Copy-on-write publication: a reader keeps testing the published set
	// while the writer deletes into its clone (run under -race in CI).
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			if ts.Deleted(7) || ts.Deleted(20_000) || ts.Len() != 3 {
				t.Error("a published set changed under its reader")
				return
			}
		}
	}()
	cl := ts.Clone()
	cl.Delete(7)      // inside the cloned words
	cl.Delete(20_000) // grows the clone only
	<-done
	if cl.Len() != 5 || !cl.Deleted(7) || !cl.Deleted(20_000) || !cl.Deleted(64) {
		t.Fatalf("clone lost or missed a delete: len %d", cl.Len())
	}
	if ts.Len() != 3 || ts.Deleted(7) || ts.Deleted(20_000) {
		t.Fatal("deleting into a clone changed its source")
	}
}

func TestInsertIntoTinyIndex(t *testing.T) {
	// Start from a 2-point index and grow it; exercises the degenerate
	// search pools of the earliest insertions.
	base := vecmath.MatrixFromSlices([][]float32{{0, 0}, {1, 1}})
	knn, err := knngraph.BuildExact(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := NSGBuild(knn, base, BuildParams{L: 10, M: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 40; i++ {
		vec := []float32{float32(i), float32(i % 7)}
		if _, err := idx.Insert(vec, InsertParams{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := idx.FlatView().ReachableFrom(idx.Navigating); got != 40 {
		t.Errorf("reachable = %d, want 40", got)
	}
	res := idx.Search([]float32{35.1, 0.2}, 1, 20, nil)
	want := idx.Base.Row(int(res[0].ID))
	if vecmath.L2(want, []float32{35.1, 0.2}) > 4 {
		t.Errorf("nearest after growth is far away: %v", want)
	}
}
