//go:build !race

// The filtered-search allocation gate lives behind !race with the other
// alloc budgets: the race detector defeats sync.Pool caching, making the
// counts meaningless there.

package nsg

import (
	"testing"

	"repro/internal/core"
)

// TestFilteredSearchZeroAlloc: a warm filtered search with a reused context
// must allocate nothing on either plan — the filter bitmap is compiled once
// up front, the walk's navigation pool and the scan's id and distance
// buffers live in the context scratch — and through the public pool only
// the two result slices remain.
func TestFilteredSearchZeroAlloc(t *testing.T) {
	ds := shardedTestData(t, 1500, 20)
	idx := buildMappedPublicIndex(t, ds, QuantNone)
	attachTestMetadata(t, idx.SetMetadata, idx.Len())

	// Half the rows pass. At l = 60 the planner scans them; at l = k the
	// walk's ball is small enough to win. Hops tell the two apart.
	f, err := idx.CompileFilter(HasTag("tags", "even"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.NewSearchContext()
	qi := 0
	for _, plan := range []struct {
		name string
		l    int
		scan bool
	}{{"scan", 60, true}, {"walk", 10, false}} {
		// The only shard's filter is the global bitmap as it is.
		flt := f.shards[0]
		search := func() core.SearchResult {
			qi++
			return idx.s.shards[0].Query(ctx, ds.Queries.Row(qi%ds.Queries.Rows), core.Query{K: 10, L: plan.l, Filter: &flt})
		}
		for i := 0; i < 8; i++ { // warm every context buffer
			search()
		}
		allocs := testing.AllocsPerRun(200, func() {
			if res := search(); len(res.Neighbors) != 10 || (res.Hops == 0) != plan.scan {
				t.Fatalf("%s: %d results after %d hops", plan.name, len(res.Neighbors), res.Hops)
			}
		})
		if allocs != 0 {
			t.Fatalf("warm filtered ctx-reuse search (%s) allocated %.2f times per query, want 0", plan.name, allocs)
		}
	}

	for i := 0; i < 8; i++ { // warm the public context pool
		idx.SearchFilteredWithPool(ds.Queries.Row(i%ds.Queries.Rows), 10, 60, f)
	}
	allocs := testing.AllocsPerRun(200, func() {
		ids, dists := idx.SearchFilteredWithPool(ds.Queries.Row(qi%ds.Queries.Rows), 10, 60, f)
		if len(ids) != 10 || len(dists) != 10 {
			t.Fatal("short result")
		}
		qi++
	})
	if allocs > 2.5 {
		t.Fatalf("public filtered SearchFilteredWithPool allocated %.2f times per query, want 2 (result slices only)", allocs)
	}
}

// TestCompileFilterAllocs pins what one CompileFilter call allocates on a
// one-shard index with metadata: the compiled bitmap, the Filter and its
// one-entry slice of per-shard filters, which shares the bitmap.
func TestCompileFilterAllocs(t *testing.T) {
	ds := shardedTestData(t, 2000, 1)
	x := buildShardedIndex(t, ds, 1)
	defer x.Close()
	if err := x.SetMetadata(parityMetadata(x.Len())); err != nil {
		t.Fatal(err)
	}
	for _, p := range []Predicate{Eq("category", "c3"), Eq("tenant", 7)} {
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := x.CompileFilter(p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 3 {
			t.Errorf("CompileFilter(%v) allocated %.1f times, want 3", p, allocs)
		}
	}
}
