package bench

import (
	"runtime"
	"time"
)

// bestOf runs f reps times and returns the fastest wall-clock elapsed time.
// The experiments keep the fastest of several timed passes so a single
// scheduler hiccup cannot misprice a sweep cell.
func bestOf(reps int, f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		if el := time.Since(start); el < best {
			best = el
		}
	}
	return best
}

// heapAllocs reads the process-wide cumulative malloc count.
func heapAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
