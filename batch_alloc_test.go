//go:build !race

// The batch allocation gate lives behind !race with the other alloc
// budgets: the race detector defeats sync.Pool caching, making the counts
// meaningless there.

package nsg

import "testing"

// TestBatchSearchZeroAlloc bounds what the batch worker pool adds to the
// solo search: per query exactly the two returned slices (each worker keeps
// one pooled context for its whole share), per call the result table plus a
// constant per worker (goroutine, closure, wait group).
func TestBatchSearchZeroAlloc(t *testing.T) {
	ds := shardedTestData(t, 1500, 32)
	for _, quantize := range []QuantMode{QuantNone, QuantSQ8, QuantInt4} {
		opts := DefaultOptions()
		opts.ExactKNN = true
		opts.Seed = 7
		opts.Quantize = quantize
		data := make([]float32, len(ds.Base.Data))
		copy(data, ds.Base.Data)
		idx, err := BuildFromFlat(data, ds.Base.Dim, opts)
		if err != nil {
			t.Fatal(err)
		}
		queries := make([][]float32, ds.Queries.Rows)
		for qi := range queries {
			queries[qi] = ds.Queries.Row(qi)
		}
		batchAllocs := func(n, workers int) float64 {
			for i := 0; i < 4; i++ { // warm the context pool
				idx.SearchBatch(queries[:n], 10, 60, workers)
			}
			return testing.AllocsPerRun(100, func() {
				if res := idx.SearchBatch(queries[:n], 10, 60, workers); len(res) != n {
					t.Fatal("short result")
				}
			})
		}

		// One inline worker is deterministic: growing the batch by 24
		// queries must cost exactly their 48 result slices.
		small, large := batchAllocs(8, 1), batchAllocs(32, 1)
		if large-small != 2*24 {
			t.Fatalf("quantize=%v: 24 more queries allocated %.2f more times, want %d (two result slices each)", quantize, large-small, 2*24)
		}
		if small > 2*8+6 {
			t.Fatalf("quantize=%v: SearchBatch(8 queries, 1 worker) allocated %.2f times, want <= %d", quantize, small, 2*8+6)
		}
		// Several workers add a constant each, never a per-query or per-hop
		// cost (which would show up as hundreds of allocations per batch).
		for _, workers := range []int{2, 4} {
			if got, limit := batchAllocs(32, workers), float64(2*32+6+4*workers); got > limit {
				t.Fatalf("quantize=%v: SearchBatch(32 queries, %d workers) allocated %.2f times, want <= %.0f", quantize, workers, got, limit)
			}
		}
	}
}
