// Package bench is the experiment harness: it builds every index on the
// synthetic stand-ins for the paper's datasets and regenerates each table
// and figure of the evaluation section (Tables 1-5, Figures 6-12) as text
// rows. cmd/bench is the front end; bench_test.go wires the same runs into
// testing.B.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/vecmath"
)

// SearchFunc answers one query: k neighbors under a method-specific effort
// parameter (graph pool size, LSH probes, IVF nprobe, tree checks...).
// counter is nil on the passes that only warm or time (see measure); a
// searcher that draws random starts from a shared stream draws them only
// when counter is non-nil (countedOnly), so a cell's recorded numbers do not
// depend on how many passes the clock asked for.
type SearchFunc func(q []float32, k, effort int, counter *vecmath.Counter) []vecmath.Neighbor

// Method is a named searcher with the effort values to sweep.
type Method struct {
	Name    string
	Search  SearchFunc
	Efforts []int
}

// SweepPoint is one point on a recall/QPS curve: one cell measured by
// measure. The averages are per query, and the JSON names are those of the
// BENCH_*.json records that embed a point.
type SweepPoint struct {
	Effort     int     `json:"effort"`               // the method's effort (search pool L for an NSG)
	Recall     float64 `json:"recall"`               // mean recall@k against the exact answer
	QPS        float64 `json:"qps"`                  // single-client queries/second
	MsPerQ     float64 `json:"ms_per_query"`         // mean single-query response time
	Hops       float64 `json:"hops"`                 // Algorithm 1 expansions (searchers that report them)
	DistComps  float64 `json:"dist_comps,omitempty"` // distance computations (0, and left out, where the search counts none)
	AllocsPerQ float64 `json:"allocs_per_q"`         // heap allocations in the counted pass
}

// RecallSweep runs the method over all its effort values on the query set,
// single-threaded (the paper's search protocol), returning one point per
// effort level.
func RecallSweep(m Method, queries vecmath.Matrix, gt [][]int32, k int) []SweepPoint {
	points := make([]SweepPoint, 0, len(m.Efforts))
	for _, effort := range m.Efforts {
		points = append(points, measure(gt, k, effort, func(qi int, c *vecmath.Counter) core.SearchResult {
			return core.SearchResult{Neighbors: m.Search(queries.Row(qi), k, effort, c)}
		}))
	}
	return points
}

// AtRecall interpolates metric along the sweep at a target recall: QPS for
// the paper's headline comparison, distance computations per query for
// Figure 8. Returns ok=false if the method never reaches the target.
func AtRecall(points []SweepPoint, target float64, metric func(SweepPoint) float64) (float64, bool) {
	sorted := append([]SweepPoint{}, points...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Recall < sorted[j].Recall })
	for i, p := range sorted {
		if p.Recall >= target {
			if i == 0 || p.Recall == sorted[i-1].Recall {
				return metric(p), true
			}
			prev := sorted[i-1]
			frac := (target - prev.Recall) / (p.Recall - prev.Recall)
			return metric(prev) + frac*(metric(p)-metric(prev)), true
		}
	}
	return 0, false
}

// firstReaching returns the first of n points, in order, whose recall
// reaches target, or ok=false: the matched-recall cell. point(i) looks the
// i-th point up, or measures it, so a sweep can stop at the first that
// reaches.
func firstReaching(n int, target float64, point func(i int) SweepPoint) (pt SweepPoint, ok bool) {
	for i := range n {
		if pt = point(i); pt.Recall >= target {
			return pt, true
		}
	}
	return SweepPoint{}, false
}

// series collects the points of one scaling table for a power-law fit.
type series struct{ xs, ys []float64 }

// add prints one row of the table and adds (x, y) to the fit.
func (s *series) add(w io.Writer, x, y float64, row string, cells ...any) {
	fmt.Fprintf(w, row, cells...)
	s.xs, s.ys = append(s.xs, x), append(s.ys, y)
}

// print prints the fitted exponent, "fitted: <law>^b (R²=...); <claim>",
// once the table has two points.
func (s *series) print(w io.Writer, law, claim string) {
	if len(s.xs) >= 2 {
		exp, r2 := FitPowerLaw(s.xs, s.ys)
		fmt.Fprintf(w, "fitted: %s^%.3f (R²=%.3f); %s\n", law, exp, r2, claim)
	}
}

// FitPowerLaw fits y = c·x^b by least squares in log-log space and returns
// the exponent b with the fit's R². The scaling figures (9, 10, 11, 12)
// report these exponents.
func FitPowerLaw(xs, ys []float64) (exponent, r2 float64) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN(), 0
	}
	lx := make([]float64, 0, len(xs))
	ly := make([]float64, 0, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			continue
		}
		lx = append(lx, math.Log(xs[i]))
		ly = append(ly, math.Log(ys[i]))
	}
	if len(lx) < 2 {
		return math.NaN(), 0
	}
	n := float64(len(lx))
	var sx, sy, sxx, sxy, syy float64
	for i := range lx {
		sx += lx[i]
		sy += ly[i]
		sxx += lx[i] * lx[i]
		sxy += lx[i] * ly[i]
		syy += ly[i] * ly[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN(), 0
	}
	b := (n*sxy - sx*sy) / den
	// R² of the linear fit in log space.
	a := (sy - b*sx) / n
	var ssRes, ssTot float64
	meanY := sy / n
	for i := range lx {
		pred := a + b*lx[i]
		ssRes += (ly[i] - pred) * (ly[i] - pred)
		ssTot += (ly[i] - meanY) * (ly[i] - meanY)
	}
	if ssTot == 0 {
		return b, 1
	}
	return b, 1 - ssRes/ssTot
}

// FormatBytes renders a byte count the way the paper's Table 2 does (MB).
func FormatBytes(b int64) string {
	mb := float64(b) / (1 << 20)
	if mb >= 1000 {
		return fmt.Sprintf("%.1fe3 MB", mb/1000)
	}
	return fmt.Sprintf("%.1f MB", mb)
}

// runRecord heads the BENCH_*.json record of a sweep: the corpus and the
// query set it ran on.
type runRecord struct {
	Dataset string `json:"dataset"`
	N       int    `json:"n"`
	Dim     int    `json:"dim"`
	Queries int    `json:"queries"`
	K       int    `json:"k"`
}

// writeRecord writes v as indented JSON to name in the working directory,
// the BENCH_*.json record of one experiment, and says so on w.
func writeRecord(w io.Writer, name string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(name, append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: write %s: %w", name, err)
	}
	fmt.Fprintln(w, "wrote", name)
	return nil
}
