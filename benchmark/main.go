// Command benchmark is the repository's benchmark: four fixed-work
// workloads over the public nsg API and the real nsgserve / nsgrouter
// binaries, measured from outside. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	workdir  string // scratch space; a run's files live under workdir/tmp
	bindir   string // where nsgserve and nsgrouter were built
	dir      string // the benchmark's own directory: out/ and results/ live there
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records a metric under its catalogued unit.
func (r *result) set(name string, v float64) {
	d, ok := catalogue[name]
	if !ok {
		panic("metric " + name + " is not in the catalogue")
	}
	r.Metrics[name] = metric{Value: v, Unit: d.Unit}
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var cfg config
	var trace int
	var selfcheck, manifest bool
	var runs int
	flag.StringVar(&cfg.workload, "workload", "all", "lib_read, lib_filter_quant, lib_churn, cluster_mix, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is derived from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long the timed phase takes at the seed commit; fixes the op count")
	flag.IntVar(&trace, "trace", 0, "1: make the traced run and report the per-layer metrics")
	flag.BoolVar(&cfg.quick, "quick", false, "tiny sizes, for the harness's own test")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload in two interleaved sets and compare them against the bounds")
	flag.IntVar(&runs, "runs", 10, "with -selfcheck: runs per set, each on its own seed")
	flag.BoolVar(&manifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for scratch files")
	flag.StringVar(&cfg.bindir, "bin", ".bench_build/bin", "directory holding the nsgserve and nsgrouter binaries")
	flag.StringVar(&cfg.dir, "dir", "benchmark", "the benchmark's directory; traces go to its out/, records to its results/")
	flag.Parse()
	cfg.trace = trace != 0

	defer runCleanups()
	sig := make(chan os.Signal, 1)
	// SIGPIPE too: a reader that closes the pipe early (`| head`) must not
	// leave servers or run directories behind.
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGPIPE)
	go func() {
		<-sig
		runCleanups()
		os.Exit(130)
	}()

	var err error
	switch {
	case manifest:
		err = printManifest(os.Stdout)
	case selfcheck:
		err = runSelfcheck(cfg, runs)
	case cfg.workload == "all":
		err = runAll(cfg)
	default:
		var res *result
		if res, err = execute(cfg); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}
