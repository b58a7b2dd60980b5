//go:build !race

// The mapped-search allocation gate lives behind !race with the other
// alloc budgets: the race detector defeats sync.Pool caching, making the
// counts meaningless there.

package nsg

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// TestMappedSearchZeroAlloc is the acceptance gate for disk-resident
// serving: a warm search over a mapped index — adjacency rows and vectors
// read straight from the mapping — must allocate exactly as much as the
// heap path: zero with a reused context, only the two result slices
// through the public pool.
func TestMappedSearchZeroAlloc(t *testing.T) {
	ds := shardedTestData(t, 1500, 20)
	idx := buildMappedPublicIndex(t, ds, QuantNone)
	path := filepath.Join(t.TempDir(), "idx.nsgm")
	if err := idx.SaveMapped(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMapped(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	ctx := core.NewSearchContext()
	for i := 0; i < 8; i++ { // warm every context buffer and fault the pages in
		mapped.s.shards[0].Query(ctx, ds.Queries.Row(i%ds.Queries.Rows), core.Query{K: 10, L: 60})
	}
	qi := 0
	allocs := testing.AllocsPerRun(200, func() {
		res := mapped.s.shards[0].Query(ctx, ds.Queries.Row(qi%ds.Queries.Rows), core.Query{K: 10, L: 60}).Neighbors
		if len(res) != 10 {
			t.Fatal("short result")
		}
		qi++
	})
	if allocs != 0 {
		t.Fatalf("warm mapped ctx-reuse search allocated %.2f times per query, want 0", allocs)
	}

	for i := 0; i < 8; i++ { // warm the public context pool
		mapped.SearchWithPool(ds.Queries.Row(i%ds.Queries.Rows), 10, 60)
	}
	allocs = testing.AllocsPerRun(200, func() {
		ids, dists := mapped.SearchWithPool(ds.Queries.Row(qi%ds.Queries.Rows), 10, 60)
		if len(ids) != 10 || len(dists) != 10 {
			t.Fatal("short result")
		}
		qi++
	})
	if allocs > 2.5 {
		t.Fatalf("public mapped SearchWithPool allocated %.2f times per query, want 2 (result slices only)", allocs)
	}
}
