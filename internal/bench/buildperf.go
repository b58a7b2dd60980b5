package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graphutil"
	"repro/internal/knngraph"
)

// BuildPerfResult is the serialized record of one construction-pipeline
// measurement: wall clock and allocation counts for NN-Descent and
// Algorithm 2, the per-phase breakdown from core.BuildStats, and the kNN
// graph's recall against the exact graph. cmd/bench -exp build writes it to
// BENCH_build.json so the build-performance trajectory is tracked across
// PRs.
type BuildPerfResult struct {
	Dataset    string  `json:"dataset"`
	N          int     `json:"n"`
	Dim        int     `json:"dim"`
	KNNK       int     `json:"knn_k"`
	NSGL       int     `json:"nsg_l"`
	NSGM       int     `json:"nsg_m"`
	KNNRecall  float64 `json:"knn_recall"`  // knngraph.Accuracy vs BuildExact
	NSGDegrees float64 `json:"nsg_avg_deg"` // average out-degree of the built NSG

	KNNMillis   float64 `json:"knn_build_ms"`
	KNNAllocs   uint64  `json:"knn_allocs"`
	KNNBytes    uint64  `json:"knn_alloc_bytes"`
	NSGMillis   float64 `json:"nsg_build_ms"`
	NSGAllocs   uint64  `json:"nsg_allocs"`
	NSGBytes    uint64  `json:"nsg_alloc_bytes"`
	TotalMillis float64 `json:"total_build_ms"`

	PhaseNavigateMillis    float64 `json:"phase_navigate_ms"`
	PhaseCollectMillis     float64 `json:"phase_collect_ms"`
	PhaseInterInsertMillis float64 `json:"phase_interinsert_ms"`
	PhaseRepairMillis      float64 `json:"phase_repair_ms"`
	PhaseFlattenMillis     float64 `json:"phase_flatten_ms"`
	TreeRepairEdges        int     `json:"tree_repair_edges"`
	TreePasses             int     `json:"tree_passes"`
}

// measureAllocs runs f and returns its wall clock plus the heap allocation
// count and bytes the process performed meanwhile (run single experiments
// for clean numbers).
func measureAllocs(f func() error) (time.Duration, uint64, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := f()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
}

// BuildPerf measures the construction pipeline on a SIFT-like stand-in:
// NN-Descent as nsg.Build runs it (knngraph.BuildForNSG; wall clock,
// allocations, recall vs the exact kNN graph) and Algorithm 2 with its
// per-phase timings. The result table goes to w and the JSON record to
// BENCH_build.json in the working directory.
func BuildPerf(w io.Writer, c ExpConfig) error {
	n := c.n(6000)
	ds, err := dataset.SIFTLike(dataset.Config{N: n, Queries: 1, GTK: 1, Dim: 128, Seed: c.Seed})
	if err != nil {
		return fmt.Errorf("bench: generate build dataset: %w", err)
	}
	p := DefaultSuiteParams()
	res := BuildPerfResult{
		Dataset: "SIFT-like",
		N:       ds.Base.Rows,
		Dim:     ds.Base.Dim,
		KNNK:    p.KNNK,
		NSGL:    p.NSGL,
		NSGM:    p.NSGM,
	}

	var knnGraph *graphutil.Graph
	elapsed, allocs, bytes, err := measureAllocs(func() error {
		g, err := knngraph.BuildForNSG(ds.Base, p.KNNK, false, c.Seed)
		knnGraph = g
		return err
	})
	if err != nil {
		return fmt.Errorf("bench: NN-Descent: %w", err)
	}
	res.KNNMillis = elapsed.Seconds() * 1000
	res.KNNAllocs = allocs
	res.KNNBytes = bytes

	exact, err := knngraph.BuildExact(ds.Base, p.KNNK)
	if err != nil {
		return fmt.Errorf("bench: exact kNN graph: %w", err)
	}
	res.KNNRecall = knngraph.Accuracy(knnGraph, exact)

	var stats core.BuildStats
	var nsgIdx *core.NSG
	elapsed, allocs, bytes, err = measureAllocs(func() error {
		idx, s, err := core.NSGBuild(knnGraph, ds.Base, core.BuildParams{L: p.NSGL, M: p.NSGM, Seed: c.Seed})
		nsgIdx, stats = idx, s
		return err
	})
	if err != nil {
		return fmt.Errorf("bench: NSGBuild: %w", err)
	}
	res.NSGMillis = elapsed.Seconds() * 1000
	res.NSGAllocs = allocs
	res.NSGBytes = bytes
	res.TotalMillis = res.KNNMillis + res.NSGMillis
	res.NSGDegrees = nsgIdx.Stats().AvgDegree
	res.PhaseNavigateMillis = stats.Phases.Navigate.Seconds() * 1000
	res.PhaseCollectMillis = stats.Phases.Collect.Seconds() * 1000
	res.PhaseInterInsertMillis = stats.Phases.InterInsert.Seconds() * 1000
	res.PhaseRepairMillis = stats.Phases.Repair.Seconds() * 1000
	res.PhaseFlattenMillis = stats.Phases.Flatten.Seconds() * 1000
	res.TreeRepairEdges = stats.TreeRepairEdges
	res.TreePasses = stats.TreePasses

	fmt.Fprintln(w, "Build performance (construction pipeline)")
	fmt.Fprintf(w, "dataset %s: n=%d dim=%d  (K=%d L=%d M=%d)\n", res.Dataset, res.N, res.Dim, res.KNNK, res.NSGL, res.NSGM)
	fmt.Fprintf(w, "%-24s %12s %12s %14s\n", "stage", "wall (ms)", "allocs", "bytes")
	fmt.Fprintf(w, "%-24s %12.1f %12d %14d\n", "NN-Descent", res.KNNMillis, res.KNNAllocs, res.KNNBytes)
	fmt.Fprintf(w, "%-24s %12.1f %12d %14d\n", "NSG (Algorithm 2)", res.NSGMillis, res.NSGAllocs, res.NSGBytes)
	fmt.Fprintf(w, "%-24s %12.1f\n", "  navigate", res.PhaseNavigateMillis)
	fmt.Fprintf(w, "%-24s %12.1f\n", "  collect+select", res.PhaseCollectMillis)
	fmt.Fprintf(w, "%-24s %12.1f\n", "  inter-insert", res.PhaseInterInsertMillis)
	fmt.Fprintf(w, "%-24s %12.1f\n", "  repair", res.PhaseRepairMillis)
	fmt.Fprintf(w, "%-24s %12.1f\n", "  flatten", res.PhaseFlattenMillis)
	fmt.Fprintf(w, "kNN-graph recall vs exact: %.4f (gate 0.90)\n", res.KNNRecall)
	fmt.Fprintf(w, "NSG average out-degree: %.1f; repair edges %d in %d passes\n",
		res.NSGDegrees, res.TreeRepairEdges, res.TreePasses)

	return writeRecord(w, "BENCH_build.json", res)
}
