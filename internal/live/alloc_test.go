//go:build !race

package live

import (
	"testing"
	"time"

	"repro/internal/core"
)

// TestSearchCtxZeroAlloc gates the lock-free read path's allocation
// contract: with a warm per-goroutine context, a live search — snapshot
// traversal with tombstones in the pass test, delta scan, merge — performs
// zero heap allocations. (Tagged !race: the race detector's
// instrumentation allocates.)
func TestSearchCtxZeroAlloc(t *testing.T) {
	const n0, dim = 400, 16
	all := testVectors(n0+40, dim, 11)
	for _, quantized := range []bool{false, true} {
		name := "float32"
		if quantized {
			name = "sq8"
		}
		t.Run(name, func(t *testing.T) {
			idx := buildNSG(t, all.Slice(0, n0).Clone())
			if quantized {
				idx.Relayout()
				if err := idx.EnableQuantization(nil); err != nil {
					t.Fatal(err)
				}
			}
			h := New(idx, nil, Options{Interval: time.Hour, MaxPending: 1 << 20})
			defer h.Close()
			// Leave a delta pending so the scan-and-merge path is
			// exercised, not just the snapshot traversal.
			for i := n0; i < all.Rows; i++ {
				if _, err := appendNext(h, all.Row(i)); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range []int32{7, 8, 250, n0 + 3} {
				if err := h.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			ctx := core.NewSearchContext()
			q := all.Row(7)
			for i := 0; i < 8; i++ { // warm every scratch buffer
				h.Query(ctx, q, core.Query{K: 10, L: 60})
			}
			allocs := testing.AllocsPerRun(200, func() {
				h.Query(ctx, q, core.Query{K: 10, L: 60})
			})
			if allocs != 0 {
				t.Fatalf("live search allocates %.2f/op with a warm context, want 0", allocs)
			}
		})
	}
}
