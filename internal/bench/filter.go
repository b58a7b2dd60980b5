package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/knngraph"
	"repro/internal/meta"
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

// FilterPoint is one (variant, selectivity, effort) measurement.
type FilterPoint struct {
	Variant     string  `json:"variant"`     // float32 | sq8 | tenant
	Selectivity float64 `json:"selectivity"` // fraction of the base set passing
	Tenants     int     `json:"tenants,omitempty"`
	Effort      int     `json:"effort"`       // search pool L
	Recall      float64 `json:"recall"`       // mean recall@k vs brute-force-with-filter
	QPS         float64 `json:"qps"`          // single-client queries/second
	MsPerQ      float64 `json:"ms_per_query"` // mean single-query response time
	Hops        float64 `json:"hops"`         // mean expansions (0 where the exact scan answered)
	Plan        string  `json:"plan"`         // scan | walk: what core.planFiltered chose for the cell
	AllocsPerQ  float64 `json:"allocs_per_q"` // heap allocations per steady-state query
}

// FilterResult is the serialized record of one -exp filter run.
type FilterResult struct {
	Dataset string        `json:"dataset"`
	N       int           `json:"n"`
	Dim     int           `json:"dim"`
	Queries int           `json:"queries"`
	K       int           `json:"k"`
	Points  []FilterPoint `json:"points"`
}

// filterEfforts is the L sweep per (variant, selectivity) cell, and
// filterSelectivities the percentages of the base set passing.
var (
	filterEfforts       = []int{20, 40, 60, 100}
	filterSelectivities = []int{50, 25, 10, 5, 2, 1}
)

// filteredGT computes the exact filtered top-k per query: brute force over
// the rows whose pass bit is set — the reference every filtered traversal
// is scored against.
func filteredGT(ds dataset.Dataset, bits []uint64, k int) [][]int32 {
	type nb struct {
		id int32
		d  float32
	}
	out := make([][]int32, ds.Queries.Rows)
	for qi := range out {
		q := ds.Queries.Row(qi)
		var best []nb
		for i := 0; i < ds.Base.Rows; i++ {
			if bits[i>>6]&(1<<uint(i&63)) == 0 {
				continue
			}
			row := ds.Base.Row(i)
			var d float32
			for j := range row {
				diff := row[j] - q[j]
				d += diff * diff
			}
			best = append(best, nb{int32(i), d})
		}
		sort.Slice(best, func(a, b int) bool {
			return best[a].d < best[b].d || (best[a].d == best[b].d && best[a].id < best[b].id)
		})
		if len(best) > k {
			best = best[:k]
		}
		ids := make([]int32, len(best))
		for i := range best {
			ids[i] = best[i].id
		}
		out[qi] = ids
	}
	return out
}

// FilteredSearch runs the filtered-search experiment on the 6k-point
// SIFT-like suite (scaled by the config).
func FilteredSearch(w io.Writer, c ExpConfig) error {
	n := c.n(6000)
	ds, err := dataset.SIFTLike(dataset.Config{N: n, Queries: c.Queries, GTK: c.GTK, Seed: c.Seed})
	if err != nil {
		return err
	}
	k := 10
	res := FilterResult{Dataset: "SIFT-like", N: ds.Base.Rows, Dim: ds.Base.Dim, Queries: ds.Queries.Rows, K: k}

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
	buildOne := func(sq8 bool) (*core.NSG, error) {
		base := ds.Base.Clone()
		kp := knngraph.DefaultParams(20)
		kp.Seed = c.Seed
		knn, err := knngraph.BuildNNDescent(base, kp)
		if err != nil {
			return nil, err
		}
		idx, _, err := core.NSGBuild(knn, base, core.BuildParams{L: 50, M: 30, Seed: c.Seed})
		if err != nil {
			return nil, err
		}
		if sq8 {
			if err := idx.EnableQuantization(nil); err != nil {
				return nil, err
			}
		}
		idx.Meta = st
		return idx, nil
	}
	variants := []struct {
		name string
		sq8  bool
	}{
		{"float32", false},
		{"sq8", true},
	}
	indexes := make(map[string]*core.NSG, len(variants))
	for _, v := range variants {
		idx, err := buildOne(v.sq8)
		if err != nil {
			return err
		}
		indexes[v.name] = idx
	}

	fmt.Fprintf(w, "filtered search vs brute-force-with-filter on SIFT-like subset (n=%d, dim=%d, k=%d)\n", ds.Base.Rows, ds.Base.Dim, k)
	fmt.Fprintf(w, "%-10s %12s %8s %6s %9s %9s %12s %8s %10s\n",
		"variant", "selectivity", "effort", "plan", "recall", "QPS", "ms/query", "hops", "allocs/q")

	// Selectivity sweep, dense enough to put cells on both sides of the
	// planner's crossover at every effort.
	gateOK := true
	for _, selPct := range filterSelectivities {
		bits := make([]uint64, meta.BitsLen(st.Rows()))
		count, err := st.Compile(meta.Range("bucket", 0, int64(selPct-1)), bits)
		if err != nil {
			return err
		}
		flt := &core.Filter{Bits: bits, Count: count}
		gt := filteredGT(ds, bits, k)
		sel := float64(selPct) / 100
		for _, v := range variants {
			idx := indexes[v.name]
			var bestRecall float64
			for _, effort := range filterEfforts {
				pt := measureFilterPoint(idx, ds, gt, flt, v.name, sel, k, effort)
				res.Points = append(res.Points, pt)
				if pt.Recall > bestRecall {
					bestRecall = pt.Recall
				}
				fmt.Fprintf(w, "%-10s %12.2f %8d %6s %9.4f %9.0f %12.4f %8.1f %10.2f\n",
					v.name, sel, effort, pt.Plan, pt.Recall, pt.QPS, pt.MsPerQ, pt.Hops, pt.AllocsPerQ)
			}
			if bestRecall < 0.99 {
				gateOK = false
				fmt.Fprintf(w, "  GATE MISS: %s at %.0f%% selectivity peaks at recall %.4f (< 0.99)\n", v.name, sel*100, bestRecall)
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
		for tn := 0; tn < tenants; tn++ {
			bits := make([]uint64, meta.BitsLen(st.Rows()))
			lo, hi := int64(tn*per), int64((tn+1)*per-1)
			if tn == tenants-1 {
				hi = int64(ds.Base.Rows - 1) // absorb the remainder
			}
			count, err := st.Compile(meta.Range("id", lo, hi), bits)
			if err != nil {
				return err
			}
			flts[tn] = &core.Filter{Bits: bits, Count: count}
			gts[tn] = filteredGT(ds, bits, k)
		}
		pt := measureTenantPoint(idx, ds, gts, flts, k, 60)
		pt.Tenants = tenants
		pt.Selectivity = float64(per) / float64(ds.Base.Rows)
		res.Points = append(res.Points, pt)
		fmt.Fprintf(w, "%8d %12.4f %9.4f %9.0f %10.2f\n", tenants, pt.Selectivity, pt.Recall, pt.QPS, pt.AllocsPerQ)
	}

	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_filter.json", append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: write BENCH_filter.json: %w", err)
	}
	fmt.Fprintln(w, "wrote BENCH_filter.json")
	return nil
}

// recallVsGT scores got against the exact filtered answer, treating a
// short exact list (fewer than k passing points) as full credit when every
// entry is matched.
func recallVsGT(got [][]int32, gt [][]int32) float64 {
	total := 0.0
	for qi := range got {
		want := gt[qi]
		if len(want) == 0 {
			total++
			continue
		}
		set := make(map[int32]bool, len(want))
		for _, id := range want {
			set[id] = true
		}
		hit := 0
		for _, id := range got[qi] {
			if set[id] {
				hit++
			}
		}
		total += float64(hit) / float64(len(want))
	}
	return total / float64(len(got))
}

// measureFilterPoint scores one (index, filter, effort) cell with a reused
// context: recall vs the filtered ground truth, latency/QPS and allocs.
func measureFilterPoint(idx *core.NSG, ds dataset.Dataset, gt [][]int32, flt *core.Filter, variant string, sel float64, k, effort int) FilterPoint {
	pt := FilterPoint{Variant: variant, Selectivity: sel, Effort: effort}
	ctx := core.NewSearchContext()
	for i := 0; i < 4 && i < ds.Queries.Rows; i++ { // warm the context
		idx.Query(ctx, ds.Queries.Row(i), core.Query{K: k, L: effort, Filter: flt})
	}
	got := make([][]int32, ds.Queries.Rows)
	for qi := range got {
		got[qi] = make([]int32, 0, k)
	}
	var hops float64
	allocStart := heapAllocs()
	start := time.Now()
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		r := idx.Query(ctx, ds.Queries.Row(qi), core.Query{K: k, L: effort, Filter: flt})
		ids := got[qi][:0]
		for _, nb := range r.Neighbors {
			ids = append(ids, nb.ID)
		}
		got[qi] = ids
		hops += float64(r.Hops)
	}
	elapsed := time.Since(start)
	allocs := heapAllocs() - allocStart
	// A scanned cell's pass lasts a fraction of a millisecond, too short to
	// time twice and trust: keep the best of about 20 ms of passes.
	reps := min(64, 2+int(20*time.Millisecond/max(elapsed, time.Microsecond)))
	if el := bestOf(reps, func() {
		for qi := 0; qi < ds.Queries.Rows; qi++ {
			idx.Query(ctx, ds.Queries.Row(qi), core.Query{K: k, L: effort, Filter: flt})
		}
	}); el < elapsed {
		elapsed = el
	}
	q := float64(ds.Queries.Rows)
	pt.Recall = recallVsGT(got, gt)
	pt.QPS = q / elapsed.Seconds()
	pt.MsPerQ = elapsed.Seconds() * 1000 / q
	pt.Hops = hops / q
	pt.Plan = "walk"
	if hops == 0 {
		pt.Plan = "scan"
	}
	pt.AllocsPerQ = float64(allocs) / q
	return pt
}

// measureTenantPoint interleaves tenants across the query stream — query qi
// runs under tenant qi%T's filter — the access pattern of one shared index
// serving many isolated tenants.
func measureTenantPoint(idx *core.NSG, ds dataset.Dataset, gts [][][]int32, flts []*core.Filter, k, effort int) FilterPoint {
	pt := FilterPoint{Variant: "tenant", Effort: effort}
	tenants := len(flts)
	ctx := core.NewSearchContext()
	for i := 0; i < 4 && i < ds.Queries.Rows; i++ {
		idx.Query(ctx, ds.Queries.Row(i), core.Query{K: k, L: effort, Filter: flts[i%tenants]})
	}
	got := make([][]int32, ds.Queries.Rows)
	for qi := range got {
		got[qi] = make([]int32, 0, k)
	}
	allocStart := heapAllocs()
	start := time.Now()
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		r := idx.Query(ctx, ds.Queries.Row(qi), core.Query{K: k, L: effort, Filter: flts[qi%tenants]})
		ids := got[qi][:0]
		for _, nb := range r.Neighbors {
			ids = append(ids, nb.ID)
		}
		got[qi] = ids
	}
	elapsed := time.Since(start)
	allocs := heapAllocs() - allocStart
	q := float64(ds.Queries.Rows)
	total := 0.0
	for qi := range got {
		total += recallVsGT(got[qi:qi+1], gts[qi%tenants][qi:qi+1])
	}
	pt.Recall = total / q
	pt.QPS = q / elapsed.Seconds()
	pt.MsPerQ = elapsed.Seconds() * 1000 / q
	pt.AllocsPerQ = float64(allocs) / q
	return pt
}
