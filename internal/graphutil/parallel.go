package graphutil

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelWorkers returns the worker count ParallelForWorkers will use for
// n items, so callers can preallocate per-worker state (search contexts,
// join scratch) before fanning out.
func ParallelWorkers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n))
}

// ParallelFor runs body(i) for i in [0,n) across ParallelWorkers(n)
// goroutines.
func ParallelFor(n int, body func(i int)) {
	ParallelForWorkers(ParallelWorkers(n), n, func(_, i int) { body(i) })
}

// ParallelForWorkers runs body(worker, i) for i in [0,n) on at most workers
// goroutines; worker identifies the executing goroutine so bodies can reuse
// per-worker scratch without locking. The caller runs as worker 0 and
// workers-1 goroutines join it. Indexes are claimed in chunks through one
// atomic cursor: no producer goroutine and no channel hand-off per item.
// The grain keeps ~8 claims per worker for load balance, capped at 16 so a
// slow chunk cannot dominate the tail, and is 1 when n is small (ten trees
// on two workers still go one tree per claim).
func ParallelForWorkers(workers, n int, body func(worker, i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		return
	}
	grain := max(1, min(16, n/(8*workers)))
	var next atomic.Int64
	run := func(w int) {
		for {
			lo := int(next.Add(int64(grain))) - grain
			if lo >= n {
				return
			}
			for i, hi := lo, min(lo+grain, n); i < hi; i++ {
				body(w, i)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
}
