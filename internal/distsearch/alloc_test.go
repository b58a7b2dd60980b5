//go:build !race

// The allocation-budget gate lives behind a !race tag: the race detector
// intentionally defeats sync.Pool caching, so pooled fan-out scratch is
// re-allocated on every query under -race and the budget is meaningless.

package distsearch

import (
	"testing"

	"repro/internal/vecmath"
)

func TestSearchAppendReusesBuffer(t *testing.T) {
	s, ds := buildSharded(t, 1000, 4)
	buf := make([]vecmath.Neighbor, 0, 16)
	// Warm every pooled scratch path.
	for i := 0; i < 8; i++ {
		buf = s.Search(buf[:0], ds.Queries.Row(i%ds.Queries.Rows), 10, 40, nil, nil)
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = s.Search(buf[:0], ds.Queries.Row(0), 10, 40, nil, nil)
		if len(buf) != 10 {
			t.Fatal("short result")
		}
	})
	// The fan-out itself must be allocation-free; a fractional budget covers
	// rare sync.Pool refills after GC.
	if allocs > 0.5 {
		t.Fatalf("Search allocated %.2f times per query, want ~0", allocs)
	}
}
