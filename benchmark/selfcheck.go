package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
)

// Every run is its own process, so that peak memory and CPU time start
// from nothing: `-workload all` and `-selfcheck` re-run this binary.

// runChild runs one workload in a fresh process, relays what it printed
// before the result line, and returns the result.
func runChild(cfg config, workload string, seed int64, trace bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-trace", traceArg, fmt.Sprintf("-quick=%v", cfg.quick), "-workdir", cfg.workdir, "-bin", cfg.bindir, "-dir", cfg.dir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	stop := atExit(func() { cmd.Process.Signal(syscall.SIGTERM); cmd.Wait() })
	err = cmd.Wait()
	stop()
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	for _, l := range lines[:len(lines)-1] {
		fmt.Printf("  %s\n", l)
	}
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return &res, nil
}

func printResult(workload string, defs []metricDef, res *result) {
	fmt.Printf("%s: correct=%v attempted=%d failed=%d\n", workload, res.Correct, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Printf("  %-32s %14.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
}

// runAll runs the four workloads one after another, with the traced run of
// each as well under -trace 1, and stores the results in results/latest.json.
func runAll(cfg config) error {
	type record struct {
		EndToEnd *result `json:"end_to_end"`
		PerLayer *result `json:"per_layer,omitempty"`
	}
	records := map[string]*record{}
	correct := true
	for _, p := range plans {
		res, err := runChild(cfg, p.name, cfg.seed, false)
		if err != nil {
			return err
		}
		printResult(p.name, endToEnd, res)
		rec := &record{EndToEnd: res}
		correct = correct && res.Correct
		if cfg.trace {
			if rec.PerLayer, err = runChild(cfg, p.name, cfg.seed, true); err != nil {
				return err
			}
			printResult(p.name+" (traced)", perLayer, rec.PerLayer)
			correct = correct && rec.PerLayer.Correct
		}
		records[p.name] = rec
	}
	if err := writeJSON(filepath.Join(cfg.dir, "results", "latest.json"), map[string]any{"seed": cfg.seed, "seconds": cfg.seconds, "workloads": records}); err != nil {
		return err
	}
	if !correct {
		return fmt.Errorf("a workload returned wrong answers")
	}
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does, which is what the driver uses.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// iqrShare is the interquartile range of v as a share of its median.
func iqrShare(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

// comparison is one metric of one workload across the two sets.
type comparison struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Bound    float64 `json:"bound"`
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	// Diff is |median_b - median_a| / median_a; SpreadA and SpreadB are
	// each set's interquartile range over its median.
	Diff    float64   `json:"diff"`
	SpreadA float64   `json:"spread_a"`
	SpreadB float64   `json:"spread_b"`
	OK      bool      `json:"ok"`
	ValuesA []float64 `json:"values_a"`
	ValuesB []float64 `json:"values_b"`
}

// runSelfcheck runs every workload 2 x runs times on this one build, set A
// and set B turn about and every run on a seed of its own, then holds the
// benchmark to what the driver will hold it to: within each set a metric's
// spread stays inside its bound (set-up time excepted), and the two sets'
// medians differ by no more than the bound.
func runSelfcheck(cfg config, runs int) error {
	var table []comparison
	ok := true
	for _, p := range plans {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < runs; i++ {
			for turn := 0; turn < 2; turn++ {
				set := (turn + i) % 2 // alternate which set goes first
				seed := cfg.seed + int64(set*runs+i)
				fmt.Printf("%s set %c run %d/%d (seed %d)\n", p.name, 'A'+set, i+1, runs, seed)
				res, err := runChild(cfg, p.name, seed, false)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d returned wrong answers", p.name, seed)
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			c := comparison{Workload: p.name, Metric: d.Name, Unit: d.Unit, Bound: d.Bound, MedianA: median(a), MedianB: median(b), ValuesA: a, ValuesB: b}
			c.Diff = math.Abs(c.MedianB-c.MedianA) / c.MedianA
			c.OK = c.Diff <= d.Bound
			if runs >= 2 {
				c.SpreadA, c.SpreadB = iqrShare(a), iqrShare(b)
				c.OK = c.OK && (d.Name == "setup_s" || max(c.SpreadA, c.SpreadB) <= d.Bound)
			}
			ok = ok && c.OK
			table = append(table, c)
		}
	}
	fmt.Printf("%-17s %-20s %12s %12s %8s %8s %8s %8s\n", "workload", "metric", "median A", "median B", "diff", "spread A", "spread B", "bound")
	for _, c := range table {
		verdict := ""
		if !c.OK {
			verdict = "  VIOLATION"
		}
		fmt.Printf("%-17s %-20s %12.4f %12.4f %7.2f%% %7.2f%% %7.2f%% %7.2f%%%s\n",
			c.Workload, c.Metric, c.MedianA, c.MedianB, 100*c.Diff, 100*c.SpreadA, 100*c.SpreadB, 100*c.Bound, verdict)
	}
	if err := writeJSON(filepath.Join(cfg.dir, "results", "selfcheck.json"), map[string]any{
		"runs_per_set": runs, "first_seed": cfg.seed, "seconds": cfg.seconds, "ok": ok, "comparisons": table,
	}); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("selfcheck: a metric left its bound")
	}
	return nil
}
