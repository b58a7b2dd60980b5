package bench

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/vecmath"
)

// passBudget is the wall time the timing passes of one sweep cell fill
// together (bestOf).
var passBudget = 20 * time.Millisecond

// measure is the one measured pass behind every experiment: it runs search
// over queries 0..len(gt)-1 and prices the cell. The protocol:
//
//   - warm: the first 4 queries, so a reused context has grown its scratch;
//   - count: one pass with a non-nil counter. It alone supplies each query's
//     result ids (at most k, scored against gt[qi], the exact answer), the
//     hops, the distance evaluations and the heap allocations;
//   - time: bestOf's passes with a nil counter, at least two filling about
//     passBudget; the fastest prices QPS and ms/query.
//
// effort is recorded as given.
func measure(gt [][]int32, k, effort int, search func(qi int, counter *vecmath.Counter) core.SearchResult) SweepPoint {
	nq := len(gt)
	for qi := range min(4, nq) {
		search(qi, nil)
	}
	// The id rows are allocated up front so the counted pass's allocation
	// count is the search's own.
	ids := make([][]int32, nq)
	slab := make([]int32, nq*k)
	for qi := range ids {
		ids[qi] = slab[qi*k : qi*k : (qi+1)*k]
	}
	var counter vecmath.Counter
	hops := 0
	_, allocs, _, _ := measureAllocs(func() error {
		for qi := range ids {
			r := search(qi, &counter)
			for _, nb := range r.Neighbors {
				ids[qi] = append(ids[qi], nb.ID)
			}
			hops += r.Hops
		}
		return nil
	})
	elapsed := bestOf(passBudget, func() {
		for qi := range nq {
			search(qi, nil)
		}
	})
	q := float64(nq)
	return SweepPoint{
		Effort:     effort,
		Recall:     dataset.MeanRecall(ids, gt, k),
		QPS:        q / elapsed.Seconds(),
		MsPerQ:     elapsed.Seconds() * 1000 / q,
		DistComps:  float64(counter.Count()) / q,
		Hops:       float64(hops) / q,
		AllocsPerQ: float64(allocs) / q,
	}
}

// bestOf runs f at least twice and until its runs fill budget, and returns
// the fastest run's wall time: one scheduler hiccup cannot misprice a cell,
// and a pass of a few microseconds is still timed over about budget.
func bestOf(budget time.Duration, f func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	var total time.Duration
	for n := 0; n < 2 || total < budget; n++ {
		start := time.Now()
		f()
		el := time.Since(start)
		total += el
		best = min(best, el)
	}
	return best
}
