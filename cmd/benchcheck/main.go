// Command benchcheck compares a freshly generated BENCH_*.json against a
// committed baseline and fails when quality or throughput regressed beyond
// a tolerance band. It is the gate the bench-regression CI job runs after
// regenerating the quant/sharded/live experiment records, so a PR
// that silently costs recall or QPS turns the build red instead of
// landing.
//
// Usage:
//
//	benchcheck -baseline ci/baselines/quant.json -fresh BENCH_quant.json
//	benchcheck -baseline a.json,b.json -fresh A.json,B.json -normalize
//	benchcheck ... -max-recall-drop 0.01 -max-qps-drop 0.25
//
// Multiple baseline/fresh pairs (comma-separated, matched by position) are
// checked in one invocation; with -normalize the median group ratio is
// computed across every group of every pair, so a record whose points all
// go through one code path (and would regress in lockstep, self-
// normalizing) is anchored by the other files' groups. CI checks every
// experiment record in one call for exactly this reason.
//
// The tool understands any experiment record with a top-level "points"
// array (the shared shape of BENCH_quant/sharded/live): each point is
// keyed by its identity fields (variant, shards, effort, write_frac, ...)
// and its "recall"-like and "qps" metrics are compared.
//
//   - Recall is machine-independent and compared per point: any drop
//     beyond -max-recall-drop (absolute, default 0.01) fails.
//   - QPS is hardware-dependent and noisy per cell (a scheduler hiccup can
//     misprice one (variant, L) point by double-digit percents), so it is
//     compared per sweep group: points sharing an identity minus the
//     effort axis (one variant's L sweep, one shard count's L sweep) are
//     collapsed to the geometric mean of their fresh/baseline ratios — a
//     real regression in a code path depresses its whole sweep, while a
//     one-cell hiccup is averaged out. The raw mode fails a group below
//     (1 - max-qps-drop); with -normalize each group is compared against
//     the median group ratio across every checked file instead, so a
//     uniformly slower (or faster) machine shifts all groups together and
//     passes while a targeted regression still deviates and fails. CI
//     uses -normalize because hosted runners differ from the machines
//     that generated the committed baselines.
//
// Points present in the baseline but missing from the fresh run fail the
// check (coverage must not silently shrink); new points pass through.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchcheck", flag.ContinueOnError)
	baseline := fs.String("baseline", "", "committed baseline JSON(s), comma-separated (required)")
	fresh := fs.String("fresh", "", "freshly generated JSON(s), comma-separated, paired with -baseline by position (required)")
	maxRecallDrop := fs.Float64("max-recall-drop", 0.01, "largest tolerated absolute recall drop")
	maxQPSDrop := fs.Float64("max-qps-drop", 0.25, "largest tolerated relative QPS drop")
	normalize := fs.Bool("normalize", false, "compare each point's QPS ratio against the median ratio across every checked file (machine-speed independent)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *baseline == "" || *fresh == "" {
		return fmt.Errorf("both -baseline and -fresh are required")
	}
	bases := strings.Split(*baseline, ",")
	freshes := strings.Split(*fresh, ",")
	if len(bases) != len(freshes) {
		return fmt.Errorf("%d baseline file(s) but %d fresh file(s)", len(bases), len(freshes))
	}

	type pair struct {
		name      string
		base, cur map[string]point
	}
	pairs := make([]pair, len(bases))
	for i := range bases {
		b, err := loadPoints(bases[i])
		if err != nil {
			return err
		}
		c, err := loadPoints(freshes[i])
		if err != nil {
			return err
		}
		pairs[i] = pair{name: freshes[i], base: b, cur: c}
	}

	// Pass one: coverage + recall per pair, and the per-group QPS ratio
	// geomeans across ALL pairs — the median is computed over the union,
	// so a single-path experiment record (whose own groups would regress
	// in lockstep and self-normalize) is anchored by the other files'
	// groups.
	var failures []string
	type groupRatio struct {
		pair    int
		key     string
		geomean float64
		points  int
	}
	var groups []groupRatio
	for pi, p := range pairs {
		f, g := checkRecall(p.base, p.cur, *maxRecallDrop)
		for _, msg := range f {
			failures = append(failures, p.name+" "+msg)
		}
		gkeys := make([]string, 0, len(g))
		for k := range g {
			gkeys = append(gkeys, k)
		}
		sort.Strings(gkeys)
		for _, k := range gkeys {
			gr := g[k]
			groups = append(groups, groupRatio{pair: pi, key: k, geomean: gr.geomean(), points: len(gr.ratios)})
		}
	}
	ref := 1.0
	if *normalize && len(groups) > 0 {
		all := make([]float64, len(groups))
		for i, g := range groups {
			all[i] = g.geomean
		}
		ref = median(all)
	}
	for _, g := range groups {
		floor := (1 - *maxQPSDrop) * ref
		if g.geomean < floor {
			if *normalize {
				failures = append(failures, fmt.Sprintf("%s [%s] qps dropped: sweep geomean ratio %.2f (over %d points) below %.2f of the median group ratio %.2f",
					pairs[g.pair].name, g.key, g.geomean, g.points, 1-*maxQPSDrop, ref))
			} else {
				failures = append(failures, fmt.Sprintf("%s [%s] qps dropped: sweep geomean ratio %.2f (over %d points) below %.2f",
					pairs[g.pair].name, g.key, g.geomean, g.points, floor))
			}
		}
	}
	total := 0
	for _, p := range pairs {
		total += len(p.base)
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(stdout, "FAIL %s\n", f)
		}
		return fmt.Errorf("%d regression(s) against %s", len(failures), *baseline)
	}
	fmt.Fprintf(stdout, "ok: %d points within tolerance of %s\n", total, *baseline)
	return nil
}

// identityKeys are the fields that name a measurement point; everything
// else in a point object is treated as a metric or ignored. effortKeys
// name the search-effort axis, which is dropped when grouping points into
// QPS sweeps.
var (
	identityKeys = []string{"variant", "shards", "effort", "l", "k", "write_frac", "selectivity", "tenants", "dataset"}
	effortKeys   = map[string]bool{"effort": true, "l": true}
)

// point is one comparable measurement: recall-like metrics by name, an
// optional QPS figure, and the sweep group it belongs to.
type point struct {
	recalls map[string]float64
	qps     float64
	hasQPS  bool
	group   string
}

// sweep accumulates the fresh/baseline QPS ratios of one group.
type sweep struct {
	ratios []float64
}

func (s *sweep) geomean() float64 {
	if len(s.ratios) == 0 {
		return 1
	}
	sum := 0.0
	for _, r := range s.ratios {
		sum += math.Log(r)
	}
	return math.Exp(sum / float64(len(s.ratios)))
}

// loadPoints reads an experiment record and indexes its "points" array by
// identity key.
func loadPoints(path string) (map[string]point, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc map[string]any
	if err := json.Unmarshal(blob, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	raw, ok := doc["points"].([]any)
	if !ok {
		return nil, fmt.Errorf("%s: no top-level \"points\" array", path)
	}
	out := make(map[string]point, len(raw))
	for i, e := range raw {
		obj, ok := e.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("%s: points[%d] is not an object", path, i)
		}
		key := identityKey(obj, true)
		pt := point{recalls: map[string]float64{}, group: identityKey(obj, false)}
		for name, v := range obj {
			f, isNum := v.(float64)
			if !isNum {
				continue
			}
			switch {
			case name == "recall" || strings.HasSuffix(name, "_recall"):
				pt.recalls[name] = f
			case name == "qps":
				pt.qps, pt.hasQPS = f, true
			}
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("%s: duplicate point identity %q", path, key)
		}
		out[key] = pt
	}
	return out, nil
}

// identityKey concatenates the point's identity fields in a stable order;
// withEffort=false drops the effort axis, producing the sweep-group key.
func identityKey(obj map[string]any, withEffort bool) string {
	var sb strings.Builder
	for _, k := range identityKeys {
		if !withEffort && effortKeys[k] {
			continue
		}
		v, ok := obj[k]
		if !ok {
			continue
		}
		fmt.Fprintf(&sb, "%s=%v ", k, v)
	}
	return strings.TrimSpace(sb.String())
}

// sortedKeys returns base's identity keys in stable order.
func sortedKeys(base map[string]point) []string {
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkRecall reports coverage and recall regressions (machine-independent,
// compared per point) and accumulates each sweep group's fresh/baseline
// QPS ratios for the grouped throughput check.
func checkRecall(base, cur map[string]point, maxRecallDrop float64) (failures []string, groups map[string]*sweep) {
	groups = map[string]*sweep{}
	for _, k := range sortedKeys(base) {
		b := base[k]
		c, ok := cur[k]
		if !ok {
			failures = append(failures, fmt.Sprintf("[%s] present in baseline but missing from fresh run", k))
			continue
		}
		for name, bv := range b.recalls {
			cv, ok := c.recalls[name]
			if !ok {
				failures = append(failures, fmt.Sprintf("[%s] %s missing from fresh run", k, name))
				continue
			}
			if cv < bv-maxRecallDrop {
				failures = append(failures, fmt.Sprintf("[%s] %s dropped %.4f -> %.4f (tolerance %.4f)", k, name, bv, cv, maxRecallDrop))
			}
		}
		if b.hasQPS && b.qps > 0 {
			if !c.hasQPS {
				failures = append(failures, fmt.Sprintf("[%s] qps missing from fresh run", k))
				continue
			}
			g := groups[b.group]
			if g == nil {
				g = &sweep{}
				groups[b.group] = g
			}
			g.ratios = append(g.ratios, c.qps/b.qps)
		}
	}
	return failures, groups
}

// median of a non-empty slice (not modified).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	m := (s[n/2-1] + s[n/2]) / 2
	if math.IsNaN(m) {
		return 1
	}
	return m
}
