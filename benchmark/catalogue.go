package main

import (
	"encoding/json"
	"io"
)

// The workloads, the metrics and their bounds. BENCHMARK.json at the root
// of the repository is this file printed by `-manifest`; a test keeps the
// two in step.

var plans = []*plan{
	{
		name:     "lib_read",
		why:      "in-process float32 heap index, 100% SearchWithPool: traversal and the float32 kernel do all the work; bypasses every serving layer",
		n:        8000,
		requests: 1000,
		classes:  [nClass]int{classPlain: 1000},
		rate:     6200,
		caller:   "closed loop, one goroutine calling the library",
		start:    startLibRead,
	},
	{
		name:     "lib_filter_quant",
		why:      "SQ8 index with metadata served from its mmap; 50% plain, 30% 10%-filter, 20% 0.5%-filter: quant kernels, rerank, filter compile, filtered traversal, mstore",
		n:        8000,
		requests: 1000,
		classes:  [nClass]int{classPlain: 500, classF10: 300, classF05: 200},
		rate:     6000,
		caller:   "closed loop, one goroutine calling the library",
		start:    startLibFilterQuant,
	},
	{
		name:     "lib_churn",
		why:      "live index, 92% search 6% Add 2% Delete from one goroutine while the maintainer folds the delta: the only workload where writes run beside reads",
		n:        5000,
		requests: 1000,
		classes:  [nClass]int{classPlain: 1000},
		script:   scriptSpec{adds: 65, deletes: 22},
		rate:     2600,
		caller:   "closed loop, one goroutine calling the library; the index's maintainer runs beside it",
		start:    startLibChurn,
	},
	{
		name:     "cluster_mix",
		why:      "one client through nsgrouter to two nsgserve processes; 68% search 30% filtered search 2% insert: JSON, per-request filter compile, fan-out, merge and the wire dominate",
		n:        8000,
		requests: 500,
		classes:  [nClass]int{classPlain: 694, classF10: 306},
		script:   scriptSpec{inserts: 20},
		rate:     900,
		caller:   "closed loop, one HTTP client; three server processes with GOMAXPROCS=1",
		start:    startClusterMix,
	},
}

func planByName(name string) *plan {
	for _, p := range plans {
		if p.name == name {
			return p
		}
	}
	return nil
}

// metricDef describes a metric as BENCHMARK.json lists it. Bound is set for
// end-to-end metrics only.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees. A bound is the share of the
// parent's median by which the metric may worsen; one bound serves all
// four workloads, so each is as wide as its noisiest workload needs (see
// results/selfcheck.json for the measurements behind them). Build time and
// the 95th percentile latency are not here: between runs of one build they
// spread by more than any bound the driver admits, so they are per-layer
// (nsg.build_s, nsg.search_p95_ms) and printed by every run, ungated.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"qps", "1/s", higher, 0.25},
	{"lat_p50_ms", "ms", lower, 0.25},
	{"recall_at_10", "ratio", higher, 0.01},
	{"cpu_us_per_op", "us", lower, 0.25},
	{"rss_mb", "MiB", lower, 0.10},
	{"index_bytes_per_vec", "B", lower, 0.02},
}

// perLayer comes from the traced run. A metric a workload's path never
// touches reads 0 there.
var perLayer = []metricDef{
	{"vecmath.l2_ns_per_eval", "ns", lower, 0},
	{"vecmath.l2_gbps", "GB/s", higher, 0},
	{"vecmath.stream_gbps", "GB/s", higher, 0},
	{"vecmath.share_of_search", "ratio", lower, 0},
	{"quant.sq8_ns_per_eval", "ns", lower, 0},
	{"quant.int4_ns_per_eval", "ns", lower, 0},
	{"quant.share_of_search", "ratio", lower, 0},
	{"core.hops_per_query", "count", lower, 0},
	{"core.dist_comps_per_query", "count", lower, 0},
	{"core.bytes_per_hop", "B", lower, 0},
	{"core.search_self_us", "us", lower, 0},
	{"core.plain_search_us", "us", lower, 0},
	{"core.filtered_search_us.f10", "us", lower, 0},
	{"core.filtered_search_us.f05", "us", lower, 0},
	{"core.cohort_speedup", "ratio", higher, 0},
	{"nsg.build_s", "s", lower, 0},
	{"knngraph.build_s", "s", lower, 0},
	{"core.collect_s", "s", lower, 0},
	{"core.interinsert_s", "s", lower, 0},
	{"core.repair_s", "s", lower, 0},
	{"core.flatten_s", "s", lower, 0},
	{"meta.compile_us.f10", "us", lower, 0},
	{"meta.compile_us.f05", "us", lower, 0},
	{"meta.passing_rows", "count", lower, 0},
	{"mstore.open_ms", "ms", lower, 0},
	{"mstore.first_query_ms", "ms", lower, 0},
	{"mstore.minor_faults_per_kq", "count", lower, 0},
	{"mstore.major_faults", "count", lower, 0},
	{"nsg.save_ms", "ms", lower, 0},
	{"nsg.save_mapped_ms", "ms", lower, 0},
	{"nsg.load_sharded_ms", "ms", lower, 0},
	{"live.add_p50_us", "us", lower, 0},
	{"live.add_p95_us", "us", lower, 0},
	{"live.delete_p50_us", "us", lower, 0},
	{"live.pending_p95", "count", lower, 0},
	{"live.pending_max", "count", lower, 0},
	{"live.publishes_per_s", "1/s", higher, 0},
	{"live.drained_ratio", "ratio", higher, 0},
	{"live.flush_ms", "ms", lower, 0},
	{"live.search_slowdown", "ratio", lower, 0},
	{"distsearch.search_us", "us", lower, 0},
	{"distsearch.filtered_search_us", "us", lower, 0},
	{"nsgserve.request_us", "us", lower, 0},
	{"nsgserve.handler_search_us", "us", lower, 0},
	{"nsgserve.self_us", "us", lower, 0},
	{"nsgserve.insert_us", "us", lower, 0},
	{"nsgserve.request_bytes", "B", lower, 0},
	{"nsgserve.response_bytes", "B", lower, 0},
	{"nsgserve.cpu_us_per_req", "us", lower, 0},
	{"nsgrouter.request_us", "us", lower, 0},
	{"nsgrouter.self_us", "us", lower, 0},
	{"nsgrouter.cpu_us_per_req", "us", lower, 0},
	{"cluster.retries", "count", lower, 0},
	{"cluster.hedges", "count", lower, 0},
	{"nsg.search_p95_ms", "ms", lower, 0},
	{"nsg.search_p99_ms", "ms", lower, 0},
	{"nsg.allocs_per_op", "count", lower, 0},
	{"nsg.gc_pause_ms_total", "ms", lower, 0},
	{"error_ratio", "ratio", lower, 0},
	{"harness.layer_sum_ratio", "ratio", higher, 0},
	{"harness.trace_overhead_ratio", "ratio", lower, 0},
	{"harness.calib_ms", "ms", lower, 0},
	{"harness.noisy_host", "count", lower, 0},
}

var catalogue = func() map[string]metricDef {
	m := map[string]metricDef{}
	for _, d := range endToEnd {
		m[d.Name] = d
	}
	for _, d := range perLayer {
		m[d.Name] = d
	}
	return m
}()

// runSeconds is the `--seconds` the driver passes: the timed phase of every
// workload takes about this long at the seed commit.
const runSeconds = 10

func printManifest(w io.Writer) error {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []layerDef    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, p := range plans {
		m.Workloads = append(m.Workloads, workloadDef{p.name, p.why})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
