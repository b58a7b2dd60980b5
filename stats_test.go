package nsg

import (
	"math/rand"
	"testing"
)

func TestSearchWithStats(t *testing.T) {
	vecs := randomVectors(800, 8, 50)
	opts := DefaultOptions()
	opts.ExactKNN = true
	idx, err := Build(vecs, opts)
	if err != nil {
		t.Fatal(err)
	}
	q := randomVectors(1, 8, 51)[0]
	ids, dists, st := idx.SearchWithStats(q, 5, 40)
	if len(ids) != 5 || len(dists) != 5 {
		t.Fatalf("shape %d/%d", len(ids), len(dists))
	}
	if st.Hops <= 0 {
		t.Error("hops not recorded")
	}
	if st.DistanceComputations == 0 {
		t.Error("distance computations not recorded")
	}
	if st.DistanceComputations >= uint64(len(vecs)) {
		t.Errorf("counted %d >= n: search degraded to a scan", st.DistanceComputations)
	}
	// Results must match the plain search path.
	plainIDs, _ := idx.SearchWithPool(q, 5, 40)
	for i := range ids {
		if ids[i] != plainIDs[i] {
			t.Fatalf("stats path diverges from plain search: %v vs %v", ids, plainIDs)
		}
	}
}

// TestSearchWithStatsRespectsTombstones: with tombstones present the stats
// must describe the traversal that produced the returned ids — same ids and
// distance bits as SearchWithPool, the hop and evaluation counts of that one
// search — and 1% deleted rows must not make a query measurably dearer than
// it was before them.
func TestSearchWithStatsRespectsTombstones(t *testing.T) {
	const n, k, l = 2000, 10, 60
	ds := shardedTestData(t, n, 30)
	idx := buildMappedPublicIndex(t, ds, QuantNone)
	before := make([]SearchStats, ds.Queries.Rows)
	for qi := range before {
		_, _, before[qi] = idx.SearchWithStats(ds.Queries.Row(qi), k, l)
	}

	self := ds.Base.Row(9)
	if ids, _, _ := idx.SearchWithStats(self, 1, l); ids[0] != 9 {
		t.Fatalf("self-query = %d", ids[0])
	}
	if err := idx.Delete(9); err != nil {
		t.Fatal(err)
	}
	if ids, _, _ := idx.SearchWithStats(self, 1, l); ids[0] == 9 {
		t.Error("tombstoned id returned by SearchWithStats")
	}

	rng := rand.New(rand.NewSource(5))
	for idx.DeletedCount() < n/100 {
		if id := int32(rng.Intn(n)); !idx.Deleted(id) {
			if err := idx.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	for qi := range before {
		q := ds.Queries.Row(qi)
		ids, dists, st := idx.SearchWithStats(q, k, l)
		wantIDs, wantDists := idx.SearchWithPool(q, k, l)
		if searchSig(ids, dists) != searchSig(wantIDs, wantDists) {
			t.Fatalf("query %d: SearchWithStats and SearchWithPool disagree:\n%s\n%s", qi, searchSig(ids, dists), searchSig(wantIDs, wantDists))
		}
		for _, id := range ids {
			if idx.Deleted(id) {
				t.Fatalf("query %d returned tombstoned id %d", qi, id)
			}
		}
		if _, _, again := filteredStats(idx, q, k, l, nil); st != again {
			t.Fatalf("query %d: stats %+v, SearchWith with a nil filter reports %+v", qi, st, again)
		}
		if b := before[qi]; 2*st.Hops > 3*b.Hops || 2*st.DistanceComputations > 3*b.DistanceComputations {
			t.Errorf("query %d: %+v with 1%% of the rows deleted, %+v before: more than 1.5x", qi, st, b)
		}
	}
}
