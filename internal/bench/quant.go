package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/knngraph"
	"repro/internal/vecmath"
)

// This file measures the quantized serving path against the float32 path
// on one graph: recall, QPS and bytes touched per hop for every combination
// of {float32, SQ8} x {with, without rerank} x {with, without the BFS cache
// relayout}. The comparison prices the independent levers — the 4x SQ8
// code shrink and the locality permutation — and the rerank's recall
// repair, the measured counterpart of the paper's
// memory-bandwidth serving argument (Section 6). cmd/bench -exp quant
// prints the sweep and records it to BENCH_quant.json.

// QuantPoint is one (variant, effort) measurement.
type QuantPoint struct {
	Variant     string  `json:"variant"`       // float32 | sq8 | sq8+rerank, each ±relayout
	Effort      int     `json:"effort"`        // search pool L
	Recall      float64 `json:"recall"`        // mean recall@k vs exact ground truth
	QPS         float64 `json:"qps"`           // single-client queries/second
	MsPerQ      float64 `json:"ms_per_query"`  // mean single-query response time
	Hops        float64 `json:"hops"`          // mean greedy expansions
	DistComps   float64 `json:"dist_comps"`    // mean distance evaluations (code + exact)
	BytesPerHop float64 `json:"bytes_per_hop"` // vector + adjacency bytes gathered per expansion
	AllocsPerQ  float64 `json:"allocs_per_q"`  // heap allocations per steady-state query
}

// QuantTarget reports the QPS each variant reaches at the target recall —
// the matched-recall comparison the acceptance gate uses.
type QuantTarget struct {
	Variant string  `json:"variant"`
	Target  float64 `json:"target_recall"`
	Effort  int     `json:"effort"`
	QPS     float64 `json:"qps"`
	Reached bool    `json:"reached"`
}

// QuantResult is the serialized record of one -exp quant run.
type QuantResult struct {
	Dataset string        `json:"dataset"`
	N       int           `json:"n"`
	Dim     int           `json:"dim"`
	Queries int           `json:"queries"`
	K       int           `json:"k"`
	Points  []QuantPoint  `json:"points"`
	Targets []QuantTarget `json:"targets"`
}

// quantEfforts is the L sweep per variant.
var quantEfforts = []int{10, 20, 30, 40, 60, 100, 160}

// quantVariant names one search configuration over a prepared index.
type quantVariant struct {
	name   string
	relaid bool // serve the relayouted twin
	sq8    bool // the expansion gathers SQ8 codes instead of float rows
	rerank bool // exact rerank of the final pool (quantized variants)
}

func quantVariants() []quantVariant {
	return []quantVariant{
		{name: "float32", relaid: false},
		{name: "float32+relayout", relaid: true},
		{name: "sq8", sq8: true},
		{name: "sq8+relayout", sq8: true, relaid: true},
		{name: "sq8+rerank", sq8: true, rerank: true},
		{name: "sq8+rerank+relayout", sq8: true, rerank: true, relaid: true},
	}
}

// Quantized runs the quantization experiment on the 8k-point SIFT-like
// suite (scaled by the config).
func Quantized(w io.Writer, c ExpConfig) error {
	n := c.n(8000)
	ds, err := dataset.SIFTLike(dataset.Config{N: n, Queries: c.Queries, GTK: c.GTK, Seed: c.Seed})
	if err != nil {
		return err
	}
	k := 10
	res := QuantResult{Dataset: "SIFT-like", N: ds.Base.Rows, Dim: ds.Base.Dim, Queries: ds.Queries.Rows, K: k}

	fmt.Fprintf(w, "quantized search (SQ8) vs float32 on SIFT-like subset (n=%d, dim=%d, k=%d)\n", ds.Base.Rows, ds.Base.Dim, k)
	fmt.Fprintf(w, "%-20s %8s %9s %9s %12s %8s %12s %11s %10s\n",
		"variant", "effort", "recall", "QPS", "ms/query", "hops", "dist/query", "bytes/hop", "allocs/q")

	// One build per relayout cell. Its float32 rows are measured before any
	// code matrix exists; the same graph is then quantized for the SQ8 rows,
	// so every variant in a cell searches one graph.
	points := map[string][]QuantPoint{}
	for _, relaid := range []bool{false, true} {
		base := ds.Base.Clone()
		kp := knngraph.DefaultParams(20)
		kp.Seed = c.Seed
		knn, err := knngraph.BuildNNDescent(base, kp)
		if err != nil {
			return err
		}
		idx, _, err := core.NSGBuild(knn, base, core.BuildParams{L: 50, M: 30, Seed: c.Seed})
		if err != nil {
			return err
		}
		if relaid {
			idx.Relayout()
		}
		for _, sq8 := range []bool{false, true} {
			if sq8 {
				if err := idx.EnableQuantization(nil); err != nil {
					return err
				}
			}
			for _, v := range quantVariants() {
				if v.relaid != relaid || v.sq8 != sq8 {
					continue
				}
				for _, effort := range quantEfforts {
					points[v.name] = append(points[v.name], measureQuantPoint(idx, ds, v, k, effort))
				}
			}
		}
	}

	for _, v := range quantVariants() {
		target := QuantTarget{Variant: v.name, Target: 0.99}
		for _, pt := range points[v.name] {
			res.Points = append(res.Points, pt)
			fmt.Fprintf(w, "%-20s %8d %9.4f %9.0f %12.4f %8.1f %12.0f %11.0f %10.2f\n",
				v.name, pt.Effort, pt.Recall, pt.QPS, pt.MsPerQ, pt.Hops, pt.DistComps, pt.BytesPerHop, pt.AllocsPerQ)
			if !target.Reached && pt.Recall >= target.Target {
				target.Reached = true
				target.Effort = pt.Effort
				target.QPS = pt.QPS
			}
		}
		res.Targets = append(res.Targets, target)
	}

	fmt.Fprintf(w, "QPS at recall>=0.99 (the acceptance gate's matched-recall comparison):\n")
	var floatQPS float64
	for _, tg := range res.Targets {
		if !tg.Reached {
			fmt.Fprintf(w, "  %-20s     (0.99 unreachable in the effort sweep)\n", tg.Variant)
			continue
		}
		fmt.Fprintf(w, "  %-20s %9.0f (L=%d)", tg.Variant, tg.QPS, tg.Effort)
		if tg.Variant == "float32" {
			floatQPS = tg.QPS
		} else if floatQPS > 0 {
			fmt.Fprintf(w, "  %.2fx float32", tg.QPS/floatQPS)
		}
		fmt.Fprintln(w)
	}

	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_quant.json", append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: write BENCH_quant.json: %w", err)
	}
	fmt.Fprintln(w, "wrote BENCH_quant.json")
	return nil
}

// measureQuantPoint scores one (index, variant, effort) cell with a reused
// context: recall over the query set, latency/QPS, work stats, and the
// bytes-per-hop accounting.
func measureQuantPoint(idx *core.NSG, ds dataset.Dataset, v quantVariant, k, effort int) QuantPoint {
	pt := QuantPoint{Variant: v.name, Effort: effort}
	ctx := core.NewSearchContext()
	var counter vecmath.Counter
	plan := core.Query{K: k, L: effort, Counter: &counter, NoRerank: !v.rerank}
	search := func(q []float32) core.SearchResult { return idx.Query(ctx, q, plan) }
	for i := 0; i < 4 && i < ds.Queries.Rows; i++ { // warm the context
		search(ds.Queries.Row(i))
	}

	// Result rows are preallocated so the timed/counted loop contains only
	// the search itself — otherwise the harness's own slice allocations
	// would show up in the allocs-per-query column.
	got := make([][]int32, ds.Queries.Rows)
	for qi := range got {
		got[qi] = make([]int32, 0, k)
	}
	var hops float64
	counter.Reset()
	allocStart := heapAllocs()
	start := time.Now()
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		r := search(ds.Queries.Row(qi))
		ids := got[qi][:0]
		for _, nb := range r.Neighbors {
			ids = append(ids, nb.ID)
		}
		got[qi] = ids
		hops += float64(r.Hops)
	}
	elapsed := time.Since(start)
	allocs := heapAllocs() - allocStart
	// Two more timed passes, keeping the fastest, so one scheduling hiccup
	// does not misprice a cell of the comparison table.
	if el := bestOf(2, func() {
		for qi := 0; qi < ds.Queries.Rows; qi++ {
			search(ds.Queries.Row(qi))
		}
	}); el < elapsed {
		elapsed = el
	}

	q := float64(ds.Queries.Rows)
	dists := float64(counter.Count()) / q / 3 // counted across all three passes
	pt.Recall = dataset.MeanRecall(got, ds.GT, k)
	pt.QPS = q / elapsed.Seconds()
	pt.MsPerQ = elapsed.Seconds() * 1000 / q
	pt.Hops = hops / q
	pt.DistComps = dists
	pt.AllocsPerQ = float64(allocs) / q

	// Bytes gathered per expansion: every counted evaluation touches one
	// vector row (1 byte/dim for SQ8 codes, 4 bytes/dim for floats; a
	// rerank re-touches its pool in float), plus the expanded node's
	// fixed-stride adjacency row. This is the quantity the code shrink and
	// the relayout both attack.
	dim := float64(ds.Base.Dim)
	codeBytes := dim // SQ8: one byte per dimension
	adjBytes := float64(idx.FlatView().Stride) * 4
	perQuery := adjBytes * (hops / q)
	switch {
	case !v.sq8:
		perQuery += dists * dim * 4
	case v.rerank:
		exact := float64(min(effort, ds.Base.Rows)) // the reranked pool
		perQuery += (dists-exact)*codeBytes + exact*dim*4
	default:
		perQuery += dists * codeBytes
	}
	if h := hops / q; h > 0 {
		pt.BytesPerHop = perQuery / h
	}
	return pt
}
