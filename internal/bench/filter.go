package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/meta"
	"repro/internal/vecmath"
)

// This file measures predicate-aware filtered search: recall against
// brute-force-with-filter (the exact answer over the passing subset) and
// QPS at selectivities from 50% down to 1% — points on both sides of the
// planner's scan/walk crossover at every effort — across the float32 and
// SQ8 serving paths, plus a multi-tenant sweep where disjoint id ranges
// emulate per-tenant indexes sharing one graph. Each cell names the
// plan that answered it. The acceptance gate requires filtered search to
// stay within 0.01 of the exact filtered answer at every selectivity.
// cmd/bench -exp filter prints the sweep and records it to
// BENCH_filter.json.

// FilterPoint is one (variant, selectivity, effort) measurement: Effort is
// the search pool L, Recall is against brute-force-with-filter, and Hops is
// 0 where the exact scan answered.
type FilterPoint struct {
	Variant     string  `json:"variant"`     // float32 | sq8 | tenant
	Selectivity float64 `json:"selectivity"` // fraction of the base set passing
	Tenants     int     `json:"tenants,omitempty"`
	SweepPoint
	Plan string `json:"plan"` // scan | walk: what core.planFiltered chose for the cell
}

// FilterResult is the serialized record of one -exp filter run.
type FilterResult struct {
	runRecord
	Points []FilterPoint `json:"points"`
}

// filterEfforts is the L sweep per (variant, selectivity) cell, and
// filterSelectivities the percentages of the base set passing.
var (
	filterEfforts       = []int{20, 40, 60, 100}
	filterSelectivities = []int{50, 25, 10, 5, 2, 1}
)

// FilteredSearch runs the filtered-search experiment on the 6k-point
// SIFT-like suite (scaled by the config).
func FilteredSearch(w io.Writer, c ExpConfig) error {
	n := c.n(6000)
	ds, err := dataset.SIFTLike(dataset.Config{N: n, Queries: c.Queries, GTK: c.GTK, Seed: c.Seed})
	if err != nil {
		return err
	}
	k := 10
	res := FilterResult{runRecord: runRecord{Dataset: ds.Name, N: ds.Base.Rows, Dim: ds.Base.Dim, Queries: ds.Queries.Rows, K: k}}

	// The metadata: bucket = id % 100 drives the selectivity sweep
	// (Range(bucket, 0, s-1) passes s% of the rows, spread uniformly), and
	// id itself drives the tenant sweep (disjoint contiguous ranges).
	st := meta.New(ds.Base.Rows)
	buckets := make([]int64, ds.Base.Rows)
	ids := make([]int64, ds.Base.Rows)
	for i := range buckets {
		buckets[i] = int64(i % 100)
		ids[i] = int64(i)
	}
	if err := st.AddInt64("bucket", buckets); err != nil {
		return err
	}
	if err := st.AddInt64("id", ids); err != nil {
		return err
	}

	// One graph per serving representation, all from identical seeds.
	variants := []string{"float32", "sq8"}
	indexes := make(map[string]*core.NSG, len(variants))
	for _, v := range variants {
		idx, _, err := buildPlainNSG(ds.Base, 20, 50, c.Seed)
		if err != nil {
			return err
		}
		if v == "sq8" {
			if err := idx.EnableQuantization(nil); err != nil {
				return err
			}
		}
		indexes[v] = idx
	}

	fmt.Fprintf(w, "filtered search vs brute-force-with-filter on SIFT-like subset (n=%d, dim=%d, k=%d)\n", ds.Base.Rows, ds.Base.Dim, k)
	fmt.Fprintf(w, "%-10s %12s %8s %6s %9s %9s %12s %8s %10s\n",
		"variant", "selectivity", "effort", "plan", "recall", "QPS", "ms/query", "hops", "allocs/q")

	// Selectivity sweep, dense enough to put cells on both sides of the
	// planner's crossover at every effort.
	gateOK := true
	for _, selPct := range filterSelectivities {
		bits, count, err := st.CompileAlloc(meta.Range("bucket", 0, int64(selPct-1)))
		if err != nil {
			return err
		}
		flt := &core.Filter{Bits: bits, Count: count}
		gt := dataset.GroundTruth(ds.Base, ds.Queries, k, bits)
		sel := float64(selPct) / 100
		for _, v := range variants {
			idx := indexes[v]
			var bestRecall float64
			for _, effort := range filterEfforts {
				pt := measureFilterPoint(idx, ds.Queries, gt, func(int) *core.Filter { return flt }, k, effort)
				pt.Variant, pt.Selectivity = v, sel
				res.Points = append(res.Points, pt)
				if pt.Recall > bestRecall {
					bestRecall = pt.Recall
				}
				fmt.Fprintf(w, "%-10s %12.2f %8d %6s %9.4f %9.0f %12.4f %8.1f %10.2f\n",
					v, sel, effort, pt.Plan, pt.Recall, pt.QPS, pt.MsPerQ, pt.Hops, pt.AllocsPerQ)
			}
			if bestRecall < 0.99 {
				gateOK = false
				fmt.Fprintf(w, "  GATE MISS: %s at %.0f%% selectivity peaks at recall %.4f (< 0.99)\n", v, sel*100, bestRecall)
			}
		}
	}
	if gateOK {
		fmt.Fprintln(w, "gate: every variant within 0.01 of brute-force-with-filter at every selectivity")
	}

	// Multi-tenant sweep: T disjoint contiguous id ranges over one shared
	// graph; query qi searches tenant qi%T. Per-tenant selectivity is 1/T,
	// so rising T moves the plan from the walk to the exact scan.
	fmt.Fprintf(w, "multi-tenant sweep (disjoint id ranges, float32, L=%d):\n", 60)
	fmt.Fprintf(w, "%8s %12s %9s %9s %10s\n", "tenants", "selectivity", "recall", "QPS", "allocs/q")
	idx := indexes["float32"]
	for _, tenants := range []int{4, 16, 64} {
		per := ds.Base.Rows / tenants
		flts := make([]*core.Filter, tenants)
		gts := make([][][]int32, tenants)
		gt := make([][]int32, ds.Queries.Rows) // query qi's answer under its tenant's filter
		for tn := 0; tn < tenants; tn++ {
			lo, hi := int64(tn*per), int64((tn+1)*per-1)
			if tn == tenants-1 {
				hi = int64(ds.Base.Rows - 1) // absorb the remainder
			}
			bits, count, err := st.CompileAlloc(meta.Range("id", lo, hi))
			if err != nil {
				return err
			}
			flts[tn] = &core.Filter{Bits: bits, Count: count}
			gts[tn] = dataset.GroundTruth(ds.Base, ds.Queries, k, bits)
		}
		for qi := range gt {
			gt[qi] = gts[qi%tenants][qi]
		}
		pt := measureFilterPoint(idx, ds.Queries, gt, func(qi int) *core.Filter { return flts[qi%tenants] }, k, 60)
		pt.Variant, pt.Tenants = "tenant", tenants
		pt.Selectivity = float64(per) / float64(ds.Base.Rows)
		res.Points = append(res.Points, pt)
		fmt.Fprintf(w, "%8d %12.4f %9.4f %9.0f %10.2f\n", tenants, pt.Selectivity, pt.Recall, pt.QPS, pt.AllocsPerQ)
	}

	return writeRecord(w, "BENCH_filter.json", res)
}

// measureFilterPoint scores one cell on a reused context: query qi runs
// under flt(qi) at pool size effort, scored against gt, the exact filtered
// answers. The plan is the scan where no query expanded a node.
func measureFilterPoint(idx *core.NSG, queries vecmath.Matrix, gt [][]int32, flt func(qi int) *core.Filter, k, effort int) FilterPoint {
	ctx := core.NewSearchContext()
	pt := FilterPoint{SweepPoint: measure(gt, k, effort, func(qi int, _ *vecmath.Counter) core.SearchResult {
		return idx.Query(ctx, queries.Row(qi), core.Query{K: k, L: effort, Filter: flt(qi)})
	}), Plan: "walk"}
	if pt.Hops == 0 {
		pt.Plan = "scan"
	}
	return pt
}
