//go:build !race

// The sharded allocation-budget gate lives behind a !race tag: the race
// detector intentionally defeats sync.Pool caching, so the pooled fan-out
// scratch is re-allocated per query under -race and the budget is
// meaningless there.

package nsg

import (
	"testing"

	"repro/internal/vecmath"
)

// TestShardedSearchZeroAlloc is the acceptance gate for the serving path:
// a steady-state ShardedIndex.SearchWithPool must perform no heap
// allocations beyond the two returned result slices. Fan-out scratch comes
// from the persistent shard workers (one warm SearchContext each) and the
// pooled per-query fan state.
func TestShardedSearchZeroAlloc(t *testing.T) {
	ds := shardedTestData(t, 1000, 8)
	idx := buildShardedIndex(t, ds, 4)
	defer idx.Close()

	// Warm every pooled path: worker contexts, fan scratch, merge buffers.
	for i := 0; i < 16; i++ {
		idx.SearchWithPool(ds.Queries.Row(i%ds.Queries.Rows), 10, 50)
	}
	qi := 0
	allocs := testing.AllocsPerRun(200, func() {
		ids, dists := idx.SearchWithPool(ds.Queries.Row(qi%ds.Queries.Rows), 10, 50)
		if len(ids) != 10 || len(dists) != 10 {
			t.Fatal("short result")
		}
		qi++
	})
	// Exactly the ids and dists slices; fractional slack covers rare
	// sync.Pool refills when a GC cycle lands mid-measurement.
	if allocs > 2.5 {
		t.Fatalf("SearchWithPool allocated %.2f times per query, want 2 (result slices only)", allocs)
	}
}

// TestSearchAppendReusesBuffer: the shard fan-out itself, searched into a
// reused destination buffer, allocates nothing.
func TestSearchAppendReusesBuffer(t *testing.T) {
	x, ds := shardedFixture(t, 1000, 4)
	buf := make([]vecmath.Neighbor, 0, 16)
	// Warm every pooled scratch path.
	for i := 0; i < 8; i++ {
		buf = x.s.search(buf[:0], ds.Queries.Row(i%ds.Queries.Rows), 10, 40, nil, nil)
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = x.s.search(buf[:0], ds.Queries.Row(0), 10, 40, nil, nil)
		if len(buf) != 10 {
			t.Fatal("short result")
		}
	})
	// The fan-out itself must be allocation-free; a fractional budget covers
	// rare sync.Pool refills after GC.
	if allocs > 0.5 {
		t.Fatalf("search allocated %.2f times per query, want ~0", allocs)
	}
}

// TestSearchWithZeroAlloc: a steady-state SearchWith into the caller's
// buffers, with work accounting, allocates nothing — on one and four
// shards, unfiltered and filtered, under every metric (whose query
// mapping and rescoring draw on the pooled scratch).
func TestSearchWithZeroAlloc(t *testing.T) {
	ds := shardedTestData(t, 1000, 8)
	for _, m := range []Metric{L2, Cosine, InnerProduct} {
		for _, shards := range []int{1, 4} {
			opts := withShards(shards)
			opts.Metric = m
			x, err := BuildFromFlat(ds.Base.Data, ds.Base.Dim, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer x.Close()
			if err := x.SetMetadata(parityMetadata(x.Len())); err != nil {
				t.Fatal(err)
			}
			f, err := x.CompileFilter(Eq("category", "c3"))
			if err != nil {
				t.Fatal(err)
			}
			for _, flt := range []*Filter{nil, f} {
				var st SearchStats
				p := SearchParams{L: 50, Filter: flt, Stats: &st, IDs: make([]int32, 0, 10), Dists: make([]float32, 0, 10)}
				qi := 0
				search := func() {
					ids, dists := x.SearchWith(ds.Queries.Row(qi%ds.Queries.Rows), 10, p)
					if len(ids) != 10 || len(dists) != 10 || st.DistanceComputations == 0 {
						t.Fatalf("%v, %d shards, filter %v: %d results, %+v", m, shards, flt != nil, len(ids), st)
					}
					qi++
				}
				for range 16 { // warm every pooled path
					search()
				}
				// A fractional budget covers rare sync.Pool refills after GC.
				if allocs := testing.AllocsPerRun(200, search); allocs > 0.5 {
					t.Errorf("%v, %d shards, filter %v: SearchWith allocated %.2f times per query, want 0", m, shards, flt != nil, allocs)
				}
			}
		}
	}
}
