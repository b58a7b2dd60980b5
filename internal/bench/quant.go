package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/vecmath"
)

// This file measures the quantized serving path against the float32 path
// on one BFS-relaid graph, as every public build lays it out: recall, QPS
// and bytes touched per hop for float32, SQ8 and SQ8 with its exact rerank.
// The comparison prices the 4x SQ8 code shrink and the rerank's recall
// repair, the measured counterpart of the paper's memory-bandwidth serving
// argument (Section 6). cmd/bench -exp quant prints the sweep and records
// it to BENCH_quant.json.

// QuantPoint is one (variant, effort) measurement: Effort is the search
// pool L, and DistComps counts code and exact evaluations together.
type QuantPoint struct {
	Variant string `json:"variant"` // float32 | sq8 | sq8+rerank
	SweepPoint
	BytesPerHop float64 `json:"bytes_per_hop"` // vector + adjacency bytes gathered per expansion
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
	runRecord
	Points  []QuantPoint  `json:"points"`
	Targets []QuantTarget `json:"targets"`
}

// quantEfforts is the L sweep per variant.
var quantEfforts = []int{10, 20, 30, 40, 60, 100, 160}

// quantVariant names one search configuration over a prepared index.
type quantVariant struct {
	name   string
	sq8    bool // the expansion gathers SQ8 codes instead of float rows
	rerank bool // exact rerank of the final pool (quantized variants)
}

func quantVariants() []quantVariant {
	return []quantVariant{
		{name: "float32"},
		{name: "sq8", sq8: true},
		{name: "sq8+rerank", sq8: true, rerank: true},
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
	res := QuantResult{runRecord: runRecord{Dataset: ds.Name, N: ds.Base.Rows, Dim: ds.Base.Dim, Queries: ds.Queries.Rows, K: k}}

	fmt.Fprintf(w, "quantized search (SQ8) vs float32 on SIFT-like subset (n=%d, dim=%d, k=%d)\n", ds.Base.Rows, ds.Base.Dim, k)
	fmt.Fprintf(w, "%-20s %8s %9s %9s %12s %8s %12s %11s %10s\n",
		"variant", "effort", "recall", "QPS", "ms/query", "hops", "dist/query", "bytes/hop", "allocs/q")

	// One build. Its float32 rows are measured before any code matrix
	// exists; the same graph is then quantized for the SQ8 rows, so every
	// variant searches one graph.
	idx, _, err := buildPlainNSG(ds.Base, 20, 50, c.Seed)
	if err != nil {
		return err
	}
	idx.Relayout()
	points := map[string][]QuantPoint{}
	for _, v := range quantVariants() {
		if v.sq8 && idx.Quant == nil {
			if err := idx.EnableQuantization(nil); err != nil {
				return err
			}
		}
		for _, effort := range quantEfforts {
			points[v.name] = append(points[v.name], measureQuantPoint(idx, ds, v, k, effort))
		}
	}

	for _, v := range quantVariants() {
		pts := points[v.name]
		for _, pt := range pts {
			res.Points = append(res.Points, pt)
			fmt.Fprintf(w, "%-20s %8d %9.4f %9.0f %12.4f %8.1f %12.0f %11.0f %10.2f\n",
				v.name, pt.Effort, pt.Recall, pt.QPS, pt.MsPerQ, pt.Hops, pt.DistComps, pt.BytesPerHop, pt.AllocsPerQ)
		}
		at, ok := firstReaching(len(pts), 0.99, func(i int) SweepPoint { return pts[i].SweepPoint })
		res.Targets = append(res.Targets, QuantTarget{Variant: v.name, Target: 0.99, Effort: at.Effort, QPS: at.QPS, Reached: ok})
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

	return writeRecord(w, "BENCH_quant.json", res)
}

// measureQuantPoint scores one (index, variant, effort) cell on a reused
// context: recall over the query set, latency/QPS, work stats, and the
// bytes-per-hop accounting.
func measureQuantPoint(idx *core.NSG, ds dataset.Dataset, v quantVariant, k, effort int) QuantPoint {
	ctx := core.NewSearchContext()
	pt := QuantPoint{Variant: v.name, SweepPoint: measure(ds.GT, k, effort, func(qi int, c *vecmath.Counter) core.SearchResult {
		return idx.Query(ctx, ds.Queries.Row(qi), core.Query{K: k, L: effort, Counter: c, NoRerank: !v.rerank})
	})}

	// Bytes gathered per expansion: every counted evaluation touches one
	// vector row (1 byte/dim for SQ8 codes, 4 bytes/dim for floats; a
	// rerank re-touches its pool in float), plus the expanded node's CSR
	// row: its offset and, at the mean degree, its ids. This is the quantity
	// the code shrink attacks.
	dim := float64(ds.Base.Dim)
	codeBytes := dim // SQ8: one byte per dimension
	adjBytes := (1 + idx.Stats().AvgDegree) * 4
	perQuery := adjBytes * pt.Hops
	switch {
	case !v.sq8:
		perQuery += pt.DistComps * dim * 4
	case v.rerank:
		exact := float64(min(effort, ds.Base.Rows)) // the reranked pool
		perQuery += (pt.DistComps-exact)*codeBytes + exact*dim*4
	default:
		perQuery += pt.DistComps * codeBytes
	}
	if pt.Hops > 0 {
		pt.BytesPerHop = perQuery / pt.Hops
	}
	return pt
}
