// Command bench regenerates the paper's tables and figures on the synthetic
// stand-in datasets, plus a few repository-specific tables and the cluster
// chaos gate. Serving speed is measured by the benchmark under benchmark/,
// not here.
//
// Usage:
//
//	bench -exp table2            # one experiment
//	bench -exp all               # the full evaluation section
//	bench -exp fig6 -scale 2     # 2x the default dataset sizes
//	bench -exp build             # construction pipeline: per-phase wall
//	                             # clock, allocs and kNN recall, recorded
//	                             # to BENCH_build.json in the working dir
//	bench -exp quant             # SQ8 quantized search vs float32
//	                             # at matched recall, with and without
//	                             # rerank/relayout, recorded to
//	                             # BENCH_quant.json in the working dir
//	bench -exp filter            # predicate-aware filtered search: recall
//	                             # vs brute-force-with-filter, QPS and the
//	                             # chosen plan (scan | walk) at 50%..1%
//	                             # selectivity across float32/sq8,
//	                             # plus a multi-tenant disjoint-id-range
//	                             # sweep, recorded to BENCH_filter.json
//	bench -exp cluster           # chaos gate: boots a real 3-shard x
//	                             # 2-replica nsgserve cluster, SIGKILLs a
//	                             # replica, then the whole shard, and fails
//	                             # unless availability stays 1.0 and the
//	                             # degraded/503 contract holds; recorded to
//	                             # BENCH_cluster.json
//	bench -list                  # show valid experiment ids
//
// Every experiment, its parameters and its output schema are documented in
// EXPERIMENTS.md at the repository root.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "experiment id (see -list)")
	scale := flag.Float64("scale", 1.0, "dataset size multiplier")
	queries := flag.Int("queries", 100, "queries per dataset")
	seed := flag.Int64("seed", 1, "RNG seed")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	experiments := bench.Experiments()
	if *list || *exp == "" {
		fmt.Printf("experiments: %s\n", strings.Join(bench.ExperimentIDs(), " "))
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}
	run, ok := experiments[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown experiment %q; valid: %s\n", *exp, strings.Join(bench.ExperimentIDs(), " "))
		os.Exit(2)
	}
	cfg := bench.DefaultExpConfig()
	cfg.Scale = *scale
	cfg.Queries = *queries
	cfg.Seed = *seed
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}
