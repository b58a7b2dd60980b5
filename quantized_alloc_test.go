//go:build !race

// The quantized allocation gates live behind !race with the other alloc
// budgets: the race detector defeats sync.Pool caching, making the counts
// meaningless there.

package nsg

import (
	"testing"

	"repro/internal/core"
)

// TestQuantizedSearchZeroAlloc is the acceptance gate for the SQ8 serving
// path: with a reused SearchContext, a steady-state quantized search — the
// prepared query levels, the code-space expansion, and the exact rerank —
// must perform zero heap allocations; the public SearchWithPool adds only
// the two returned result slices.
func TestQuantizedSearchZeroAlloc(t *testing.T) {
	ds := shardedTestData(t, 1500, 20)
	opts := DefaultOptions()
	opts.ExactKNN = true
	opts.Seed = 7
	opts.Quantize = QuantSQ8
	data := make([]float32, len(ds.Base.Data))
	copy(data, ds.Base.Data)
	idx, err := BuildFromFlat(data, ds.Base.Dim, opts)
	if err != nil {
		t.Fatal(err)
	}

	ctx := core.NewSearchContext()
	for i := 0; i < 8; i++ { // warm every context buffer
		idx.inner.Query(ctx, ds.Queries.Row(i%ds.Queries.Rows), core.Query{K: 10, L: 60})
	}
	qi := 0
	allocs := testing.AllocsPerRun(200, func() {
		res := idx.inner.Query(ctx, ds.Queries.Row(qi%ds.Queries.Rows), core.Query{K: 10, L: 60}).Neighbors
		if len(res) != 10 {
			t.Fatal("short result")
		}
		qi++
	})
	if allocs != 0 {
		t.Fatalf("ctx-reuse search allocated %.2f times per query, want 0", allocs)
	}

	for i := 0; i < 8; i++ { // warm the public context pool
		idx.SearchWithPool(ds.Queries.Row(i%ds.Queries.Rows), 10, 60)
	}
	allocs = testing.AllocsPerRun(200, func() {
		ids, dists := idx.SearchWithPool(ds.Queries.Row(qi%ds.Queries.Rows), 10, 60)
		if len(ids) != 10 || len(dists) != 10 {
			t.Fatal("short result")
		}
		qi++
	})
	if allocs > 2.5 {
		t.Fatalf("public SearchWithPool allocated %.2f times per query, want 2 (result slices only)", allocs)
	}
}
