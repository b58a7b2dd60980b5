package graphutil

import (
	"sync/atomic"
	"testing"
)

// checkPool runs ParallelForWorkers over n items and fails unless every
// index ran exactly once, every worker id was in [0, workers), and no two
// bodies ran under the same worker id at the same time.
func checkPool(t *testing.T, workers, n int) {
	t.Helper()
	runs := make([]atomic.Int32, n)
	busy := make([]atomic.Int32, max(workers, 1))
	var badID, overlap atomic.Int32
	ParallelForWorkers(workers, n, func(w, i int) {
		if w < 0 || w >= len(busy) {
			badID.Add(1)
			return
		}
		if busy[w].Add(1) != 1 {
			overlap.Add(1)
		}
		runs[i].Add(1)
		busy[w].Add(-1)
	})
	if badID.Load() != 0 {
		t.Fatalf("workers=%d n=%d: %d bodies got a worker id outside [0,%d)", workers, n, badID.Load(), workers)
	}
	if overlap.Load() != 0 {
		t.Fatalf("workers=%d n=%d: %d bodies overlapped another with the same worker id", workers, n, overlap.Load())
	}
	for i := range runs {
		if got := runs[i].Load(); got != 1 {
			t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
		}
	}
}

func TestParallelForWorkersRunsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 3, 10, 8000} {
		for _, workers := range []int{1, 2, 3, 8} {
			checkPool(t, workers, n)
		}
	}
	// More workers than items, and a non-positive count (runs inline).
	checkPool(t, 64, 5)
	checkPool(t, 0, 7)
}

// TestParallelForNested runs a ParallelFor inside every body, the way the
// sharded build fans out shards that each fan out their own build, and
// checks that it completes with every inner index run once.
func TestParallelForNested(t *testing.T) {
	const outer, inner = 6, 500
	var total atomic.Int64
	ParallelForWorkers(3, outer, func(_, _ int) {
		var local atomic.Int64
		ParallelFor(inner, func(i int) { local.Add(int64(i) + 1) })
		if got, want := local.Load(), int64(inner*(inner+1)/2); got != want {
			t.Errorf("inner sum %d, want %d", got, want)
		}
		total.Add(1)
	})
	if total.Load() != outer {
		t.Fatalf("%d outer bodies ran, want %d", total.Load(), outer)
	}
}
