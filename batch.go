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
// an unfiltered SearchBatch. Every SearchBatch* is this worker pool:
// graphutil.ParallelForWorkers with at most len(queries) workers (a single
// one runs inline), each holding one merge buffer for its whole share.
func (x *Index) SearchBatchFiltered(queries [][]float32, k, l, workers int, f *Filter) []BatchResult {
	// Dimensions are validated before fanning out: a panic on a worker
	// goroutine would be unrecoverable for the caller, unlike the serial
	// path's.
	for i, q := range queries {
		if len(q) != x.Dim() {
			panic(fmt.Sprintf("nsg: query %d dim %d != index dim %d", i, len(q), x.Dim()))
		}
	}
	out := make([]BatchResult, len(queries))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	bufs := make([]*neighborBuf, min(workers, len(queries)))
	for w := range bufs {
		bufs[w] = x.bufs.Get().(*neighborBuf)
	}
	graphutil.ParallelForWorkers(len(bufs), len(queries), func(w, i int) {
		out[i].IDs, out[i].Dists = x.search(bufs[w], queries[i], k, l, f, nil, nil, nil)
	})
	for _, b := range bufs {
		x.bufs.Put(b)
	}
	return out
}
