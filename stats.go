package nsg

import "repro/internal/vecmath"

// SearchStats reports the work one query performed, for capacity planning
// and parameter tuning: Hops is the number of greedy expansions (the
// paper's path length l in its o·l cost model) and DistanceComputations the
// number of exact distance evaluations.
type SearchStats struct {
	Hops                 int
	DistanceComputations uint64
}

// SearchWithStats is SearchWithPool plus per-query work accounting: the
// stats describe the one traversal that produced the returned ids.
func (x *Index) SearchWithStats(query []float32, k, l int) ([]int32, []float32, SearchStats) {
	var counter vecmath.Counter
	ctx := x.getCtx()
	res := x.searchCtx(ctx, query, k, l, nil, &counter)
	ids, dists := extractResults(res.Neighbors)
	x.putCtx(ctx)
	return ids, dists, SearchStats{Hops: res.Hops, DistanceComputations: counter.Count()}
}
