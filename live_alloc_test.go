//go:build !race

// The live-serving allocation gate lives behind a !race tag like the other
// alloc budgets: the race detector defeats sync.Pool caching, making the
// pooled query scratch re-allocate per call there.

package nsg

import (
	"testing"
	"time"
)

// TestLiveSearchZeroAlloc is the acceptance gate for the live read path: a
// steady-state SearchWithPool on a live index — snapshot traversal with
// tombstones in the pass test (so the navigation pool is in use), delta
// scan, merge — must allocate nothing beyond the two returned result
// slices, exactly like the non-live path.
func TestLiveSearchZeroAlloc(t *testing.T) {
	const n0, dim = 800, 12
	all := liveTestVectors(n0+64, dim, 31)
	opts := DefaultOptions()
	opts.ExactKNN = true
	idx, err := Build(all[:n0], opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.EnableLiveUpdates(LiveOptions{MaxPending: 1 << 20, PublishInterval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	// Leave a delta pending so the gate covers the scan path,
	// not just the snapshot.
	for i := n0; i < len(all); i++ {
		if _, err := idx.Add(all[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Tombstones in the snapshot, in the delta, and on the first queries'
	// own rows.
	for _, id := range []int32{0, 1, 2, 3, 77, 400, n0 + 5, n0 + 40} {
		if err := idx.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ { // warm context and scratch pools
		idx.SearchWithPool(all[i], 10, 50)
	}
	qi := 0
	allocs := testing.AllocsPerRun(200, func() {
		ids, dists := idx.SearchWithPool(all[qi%len(all)], 10, 50)
		if len(ids) != 10 || len(dists) != 10 {
			t.Fatal("short result")
		}
		qi++
	})
	// Exactly the ids and dists slices; fractional slack covers rare
	// sync.Pool refills when a GC cycle lands mid-measurement.
	if allocs > 2.5 {
		t.Fatalf("live SearchWithPool allocated %.2f times per query, want 2 (result slices only)", allocs)
	}
}
