package nsg

import (
	"fmt"
	"runtime"

	"repro/internal/graphutil"
)

// BatchResult holds one query's answer within a batch.
type BatchResult struct {
	IDs   []int32
	Dists []float32
}

// SearchBatch answers many queries concurrently on workers goroutines
// (GOMAXPROCS when workers <= 0), each issuing the same search as
// SearchWithPool with one merge buffer for its whole share of the batch.
// Every query's answer is byte-identical to its serial SearchWithPool call.
// Searches are safe concurrently with each other and with Add. Panics if
// any query's dimension does not match the index.
func (x *Index) SearchBatch(queries [][]float32, k, l, workers int) []BatchResult {
	return x.SearchBatchFiltered(queries, k, l, workers, nil)
}

// SearchBatchFiltered answers many queries under one shared filter on
// workers goroutines, exactly like SearchBatch: every query's answer is
// byte-identical to its serial SearchFilteredWithPool call. A nil filter is
// an unfiltered SearchBatch.
func (x *Index) SearchBatchFiltered(queries [][]float32, k, l, workers int, f *Filter) []BatchResult {
	return searchBatch(queries, x.Dim(), workers, x.getBuf, x.putBuf, func(b *neighborBuf, q []float32) ([]int32, []float32) {
		return x.search(b, q, k, l, f, nil)
	})
}

// searchBatch is the worker pool behind every SearchBatch*: it answers
// queries[i] into out[i] with search on graphutil.ParallelForWorkers
// (workers goroutines, GOMAXPROCS when workers <= 0, never more than
// len(queries); a single worker runs inline), handing each worker one
// scratch value from get for its whole share of the batch and returning it
// through put.
//
// Dimensions are validated before fanning out: a panic on a worker
// goroutine would be unrecoverable for the caller, unlike the serial path's.
func searchBatch[C any](queries [][]float32, dim, workers int, get func() C, put func(C), search func(c C, query []float32) ([]int32, []float32)) []BatchResult {
	for i, q := range queries {
		if len(q) != dim {
			panic(fmt.Sprintf("nsg: query %d dim %d != index dim %d", i, len(q), dim))
		}
	}
	n := len(queries)
	out := make([]BatchResult, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	scratch := make([]C, workers)
	for w := range scratch {
		scratch[w] = get()
	}
	graphutil.ParallelForWorkers(workers, n, func(w, i int) {
		out[i].IDs, out[i].Dists = search(scratch[w], queries[i])
	})
	for _, c := range scratch {
		put(c)
	}
	return out
}
