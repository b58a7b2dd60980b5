package bench

import (
	"fmt"
	"io"
	"maps"
	"slices"

	nsg "repro"
	"repro/internal/dataset"
	"repro/internal/graphutil"
	"repro/internal/ivfpq"
	"repro/internal/scan"
	"repro/internal/vecmath"
)

// ExpConfig scales the experiments. Scale 1.0 gives the default laptop-size
// runs documented in EXPERIMENTS.md at the repository root; larger values
// approach the paper's regime at proportionally larger cost (see that
// file's "Scale" section for what does and does not transfer).
type ExpConfig struct {
	Scale   float64
	Queries int
	GTK     int
	Seed    int64
}

// DefaultExpConfig returns the scale used by cmd/bench and by the local
// results table in EXPERIMENTS.md.
func DefaultExpConfig() ExpConfig {
	return ExpConfig{Scale: 1.0, Queries: 100, GTK: 100, Seed: 1}
}

func (c ExpConfig) n(base int) int {
	n := int(float64(base) * c.Scale)
	if n < 256 {
		n = 256
	}
	return n
}

// DatasetSpec names one of the paper's datasets, its generator, and the
// per-dataset index parameters. The paper tunes every method per dataset by
// grid search (Section 4.1.4 and appendix J); these are the tuned values at
// reproduction scale.
type DatasetSpec struct {
	Name  string
	BaseN int // paper-equivalent size scaled by ExpConfig
	Gen   func(dataset.Config) (dataset.Dataset, error)
	Dim   int
	Suite SuiteParams
}

// StandardDatasets returns the four Table 1 datasets (SIFT1M, GIST1M,
// RAND4M, GAUSS5M stand-ins) at laptop scale. GIST-like is smaller because
// its 960 dimensions dominate runtime, mirroring how the paper's GIST
// numbers come from fewer queries.
func StandardDatasets() []DatasetSpec {
	sift := DefaultSuiteParams()
	sift.KNNK, sift.NSGL, sift.NSGM = 40, 60, 30
	gist := DefaultSuiteParams()
	// GIST's higher LID needs richer candidates, mirroring the paper's
	// larger max-out-degree (70) on GIST1M.
	gist.KNNK, gist.NSGL, gist.NSGM = 60, 100, 40
	randp := DefaultSuiteParams()
	gauss := DefaultSuiteParams()
	return []DatasetSpec{
		{Name: "SIFT1M", BaseN: 6000, Gen: dataset.SIFTLike, Dim: 128, Suite: sift},
		{Name: "GIST1M", BaseN: 1500, Gen: dataset.GISTLike, Dim: 960, Suite: gist},
		{Name: "RAND4M", BaseN: 4000, Gen: dataset.Uniform, Dim: 128, Suite: randp},
		{Name: "GAUSS5M", BaseN: 5000, Gen: dataset.Gaussian, Dim: 128, Suite: gauss},
	}
}

// genDataset materializes a spec under a config.
func genDataset(spec DatasetSpec, c ExpConfig) (dataset.Dataset, error) {
	ds, err := spec.Gen(dataset.Config{
		N:       c.n(spec.BaseN),
		Queries: c.Queries,
		GTK:     c.GTK,
		Dim:     spec.Dim,
		Seed:    c.Seed,
	})
	if err != nil {
		return ds, fmt.Errorf("bench: generate %s: %w", spec.Name, err)
	}
	ds.Name = spec.Name
	return ds, nil
}

// Table1 reproduces the dataset-information table: dimension, LID and
// counts per dataset.
func Table1(w io.Writer, c ExpConfig) error {
	fmt.Fprintln(w, "Table 1: dataset information (synthetic stand-ins)")
	fmt.Fprintf(w, "%-10s %6s %8s %12s %12s\n", "dataset", "D", "LID", "No. base", "No. query")
	for _, spec := range StandardDatasets() {
		ds, err := genDataset(spec, c)
		if err != nil {
			return err
		}
		lid := dataset.EstimateLID(ds.Base, 20, 400, c.Seed)
		fmt.Fprintf(w, "%-10s %6d %8.1f %12d %12d\n", spec.Name, ds.Base.Dim, lid, ds.Base.Rows, ds.Queries.Rows)
	}
	return nil
}

// buildAllSuites builds the per-dataset suites shared by Tables 2-4 and
// Figure 6.
func buildAllSuites(c ExpConfig, withExtra bool) (map[string]*Suite, error) {
	out := make(map[string]*Suite)
	for _, spec := range StandardDatasets() {
		ds, err := genDataset(spec, c)
		if err != nil {
			return nil, err
		}
		p := spec.Suite
		p.Seed = c.Seed
		p.WithExtra = withExtra
		s, err := BuildSuite(ds, p)
		if err != nil {
			return nil, fmt.Errorf("bench: suite %s: %w", spec.Name, err)
		}
		out[spec.Name] = s
	}
	return out, nil
}

// graphRows prints one row of Tables 2-4 per main method of each built
// suite, in StandardDatasets order: the dataset, then the cells row gives
// for the method, in format. NSG-Naive, the Section 4.1.2 ablation,
// appears only in Figure 6.
func graphRows(w io.Writer, suites map[string]*Suite, format string, row func(g GraphIndexInfo) []any) {
	for _, spec := range StandardDatasets() {
		s, ok := suites[spec.Name]
		if !ok {
			continue
		}
		for _, g := range s.Graph {
			if g.Name != "NSG-Naive" {
				fmt.Fprintf(w, "%-10s "+format, append([]any{spec.Name}, row(g)...)...)
			}
		}
	}
}

// Table2 reproduces the graph-index statistics table: memory, AOD, MOD and
// NN% per method per dataset.
func Table2(w io.Writer, suites map[string]*Suite) {
	fmt.Fprintln(w, "Table 2: graph-based index information")
	fmt.Fprintf(w, "%-10s %-10s %12s %8s %6s %7s\n", "dataset", "algorithm", "memory", "AOD", "MOD", "NN(%)")
	graphRows(w, suites, "%-10s %12s %8.1f %6d %7.1f\n", func(g GraphIndexInfo) []any {
		name := g.Name
		if name == "HNSW" {
			name = "HNSW0"
		}
		return []any{name, FormatBytes(g.IndexBytes), g.AOD, g.MOD, g.NNPct}
	})
}

// Table3 reproduces the indexing-time table. A method built from the shared
// kNN graph is reported t1+t2 (kNN graph time + its own build time), the
// paper's convention for NSG.
func Table3(w io.Writer, suites map[string]*Suite) {
	fmt.Fprintln(w, "Table 3: graph indexing time")
	fmt.Fprintf(w, "%-10s %-10s %16s\n", "dataset", "algorithm", "time")
	graphRows(w, suites, "%-10s %16s\n", func(g GraphIndexInfo) []any {
		cell := fmt.Sprintf("%.1fs", g.BuildTime.Seconds())
		if g.KNNTime > 0 {
			cell = fmt.Sprintf("%.1fs+%s", g.KNNTime.Seconds(), cell)
		}
		return []any{g.Name, cell}
	})
}

// Table4 reproduces the strongly-connected-components table (appendix G).
func Table4(w io.Writer, suites map[string]*Suite) {
	fmt.Fprintln(w, "Table 4: strongly connected components per graph method")
	fmt.Fprintf(w, "%-10s %-10s %6s\n", "dataset", "algorithm", "SCC")
	graphRows(w, suites, "%-10s %6d\n", func(g GraphIndexInfo) []any { return []any{g.Name, g.SCC} })
}

// Fig6 reproduces the headline search-performance figure: recall vs QPS
// curves for every graph method (plus NSG-Naive and the serial-scan
// reference) on the four datasets.
func Fig6(w io.Writer, suites map[string]*Suite) {
	fmt.Fprintln(w, "Figure 6: ANNS performance of graph-based algorithms (recall@10 vs QPS)")
	for _, spec := range StandardDatasets() {
		s, ok := suites[spec.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "-- %s --\n", spec.Name)
		fmt.Fprintf(w, "%-10s %8s %9s %9s %12s\n", "algorithm", "effort", "recall", "QPS", "dist/query")
		methods := make([]Method, 0, len(s.Graph)+1)
		for _, g := range s.Graph {
			methods = append(methods, g.Method)
		}
		methods = append(methods, s.Method("Serial-Scan", []int{1}))
		sweeps := make(map[string][]SweepPoint, len(methods))
		for _, m := range methods {
			points := RecallSweep(m, s.Data.Queries, s.Data.GT, 10)
			sweeps[m.Name] = points
			for _, pt := range points {
				fmt.Fprintf(w, "%-10s %8d %9.4f %9.0f %12.0f\n", m.Name, pt.Effort, pt.Recall, pt.QPS, pt.DistComps)
			}
		}
		// Headline comparison in the paper's high-precision region.
		for _, target := range []float64{0.95, 0.99} {
			fmt.Fprintf(w, "QPS at recall>=%.2f:\n", target)
			for _, m := range methods {
				if qps, ok := AtRecall(sweeps[m.Name], target, func(p SweepPoint) float64 { return p.QPS }); ok {
					fmt.Fprintf(w, "  %-10s %9.0f\n", m.Name, qps)
				} else {
					fmt.Fprintf(w, "  %-10s     (recall<%.2f at all efforts)\n", m.Name, target)
				}
			}
		}
	}
}

// Fig7 reproduces the DEEP100M experiment: NSG (1 core and 16 shards in
// parallel) vs IVFPQ (1 and 16 cores) vs parallel serial scan, on a
// DEEP-like subset.
func Fig7(w io.Writer, c ExpConfig) error {
	n := c.n(30000)
	ds, err := dataset.DEEPLike(dataset.Config{N: n, Queries: c.Queries, GTK: c.GTK, Seed: c.Seed})
	if err != nil {
		return err
	}
	ds.Name = "DEEP100M"
	fmt.Fprintf(w, "Figure 7: NSG vs Faiss(IVFPQ) on DEEP-like subset (n=%d)\n", n)

	// One NSG over the whole set.
	one, _, err := buildPlainNSG(ds.Base, 40, 60, c.Seed)
	if err != nil {
		return err
	}
	// Sixteen shard NSGs searched in parallel.
	sharded16, closeSharded, err := shardedNSG(ds.Base, 16, false, c.Seed)
	if err != nil {
		return err
	}
	defer closeSharded()
	pqp := ivfpq.DefaultParams()
	pqp.NList = 256
	pq, err := ivfpq.Build(ds.Base, pqp)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%-14s %8s %9s %9s\n", "method", "effort", "recall", "QPS")
	graphEfforts := []int{10, 20, 40, 80, 160}
	pqEfforts := []int{1, 2, 4, 8, 16, 32, 64}
	for _, m := range []Method{
		{"NSG-1core", nsgSearch(one), graphEfforts},
		// Per-shard pools (see shardedNSG), denser near the floor k = 10.
		{"NSG-16core", sharded16, []int{10, 12, 14, 16, 20, 40, 80, 160}},
		{"Faiss-1core", func(q []float32, k, e int, c *vecmath.Counter) []vecmath.Neighbor {
			return pq.Search(q, k, e, 4*k, c)
		}, pqEfforts},
		{"Faiss-16core", func(q []float32, k, e int, _ *vecmath.Counter) []vecmath.Neighbor {
			return searchIVFPQParallel(pq, q, k, e)
		}, pqEfforts},
		{"Serial-16core", func(q []float32, k, _ int, _ *vecmath.Counter) []vecmath.Neighbor {
			return scan.SearchParallel(ds.Base, q, k, 16)
		}, []int{1}},
	} {
		for _, pt := range RecallSweep(m, ds.Queries, ds.GT, 10) {
			fmt.Fprintf(w, "%-14s %8d %9.4f %9.0f\n", m.Name, pt.Effort, pt.Recall, pt.QPS)
		}
	}
	return nil
}

// searchIVFPQParallel fans one query's probed cells across goroutines — the
// inner-query parallelism Faiss provides on multi-core CPUs.
func searchIVFPQParallel(pq *ivfpq.Index, q []float32, k, nprobe int) []vecmath.Neighbor {
	// Partition the probe budget: each worker probes its own contiguous
	// chunk of the cell ranking, so no cell is scored twice.
	workers := graphutil.ParallelWorkers(nprobe)
	per := (nprobe + workers - 1) / workers
	lists := make([][]vecmath.Neighbor, workers)
	graphutil.ParallelFor(workers, func(wkr int) {
		lists[wkr] = pq.SearchCells(q, k, wkr*per, min((wkr+1)*per, nprobe), 4*k, nil)
	})
	return vecmath.MergeNeighborLists(k, lists...)
}

// Fig8 reproduces the distance-computation comparison: NSG vs LSH vs
// randomized KD-trees vs IVFPQ, measured as distance evaluations per query
// needed to reach each precision level, on the SIFT-like and GIST-like
// datasets.
func Fig8(w io.Writer, suites map[string]*Suite) {
	fmt.Fprintln(w, "Figure 8: distance calculations vs precision (graph vs non-graph)")
	for _, name := range []string{"SIFT1M", "GIST1M"} {
		s, ok := suites[name]
		if !ok || s.LSH == nil {
			fmt.Fprintf(w, "-- %s: suite missing non-graph indexes --\n", name)
			continue
		}
		fmt.Fprintf(w, "-- %s --\n", name)
		methods := []Method{
			s.NSGMethod(),
			s.Method("LSH", []int{1, 2, 4, 8, 16, 32, 64}),
			s.Method("KD-tree", []int{100, 200, 400, 800, 1600, 3200}),
			s.Method("IVFPQ", []int{1, 2, 4, 8, 16, 32, 64}),
		}
		fmt.Fprintf(w, "%-10s %8s %9s %12s\n", "algorithm", "effort", "recall", "dist/query")
		sweeps := make(map[string][]SweepPoint)
		for _, m := range methods {
			pts := RecallSweep(m, s.Data.Queries, s.Data.GT, 10)
			sweeps[m.Name] = pts
			for _, pt := range pts {
				fmt.Fprintf(w, "%-10s %8d %9.4f %12.0f\n", m.Name, pt.Effort, pt.Recall, pt.DistComps)
			}
		}
		for _, target := range []float64{0.80, 0.90, 0.95} {
			fmt.Fprintf(w, "distance computations at recall>=%.2f:\n", target)
			for _, m := range methods {
				if dc, ok := AtRecall(sweeps[m.Name], target, func(p SweepPoint) float64 { return p.DistComps }); ok {
					fmt.Fprintf(w, "  %-10s %12.0f\n", m.Name, dc)
				} else {
					fmt.Fprintf(w, "  %-10s      (not reached)\n", m.Name)
				}
			}
		}
	}
}

// scalingSubsets are the base-set sizes for the complexity experiments,
// each measured once: below the 256-row floor of ExpConfig.n several sizes
// clamp to the same N, which is kept only the first time.
func scalingSubsets(c ExpConfig) []int {
	sizes := []int{1500, 3000, 6000, 12000}
	out := make([]int, 0, len(sizes))
	for _, s := range sizes {
		out = append(out, c.n(s))
	}
	return slices.Compact(out)
}

// searchTimeAtPrecision measures efforts in order and returns the
// per-query time (ms) at the first whose recall reaches target, or
// ok=false.
func searchTimeAtPrecision(search SearchFunc, efforts []int, ds dataset.Dataset, k int, target float64) (float64, bool) {
	pt, ok := firstReaching(len(efforts), target, func(i int) SweepPoint {
		return RecallSweep(Method{Search: search, Efforts: efforts[i : i+1]}, ds.Queries, ds.GT, k)[0]
	})
	return pt.MsPerQ, ok
}

// nsgEfforts are the pool sizes searchTimeAtPrecision tries for a k-NN
// search on an NSG: ascending, each once, none below k.
func nsgEfforts(k int) []int {
	efforts := []int{k, 2 * k, 10, 20, 40, 80, 160, 320, 640}
	slices.Sort(efforts)
	return slices.DeleteFunc(slices.Compact(efforts), func(l int) bool { return l < k })
}

// figScaling is the shared engine of Figures 9 and 10: search time vs N at
// fixed precision, with a fitted power-law exponent.
func figScaling(w io.Writer, c ExpConfig, k int, target float64, title string) error {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%10s %14s\n", "N", "ms/query")
	var fit series
	for _, n := range scalingSubsets(c) {
		idx, ds, _, err := siftNSG(n, c)
		if err != nil {
			return err
		}
		if ms, ok := searchTimeAtPrecision(nsgSearch(idx), nsgEfforts(k), ds, k, target); ok {
			fit.add(w, float64(n), ms, "%10d %14.4f\n", n, ms)
		} else {
			fmt.Fprintf(w, "%10d       (target precision unreachable)\n", n)
		}
	}
	fit.print(w, "time ~ N", "paper reports near-logarithmic (exponent ≈ 1/d ≈ 0.1)")
	return nil
}

// Fig9 reproduces the 1-NN search-time scaling experiment.
func Fig9(w io.Writer, c ExpConfig) error {
	return figScaling(w, c, 1, 0.95, "Figure 9: 1-NN search time vs N at 95% precision (SIFT-like)")
}

// Fig10 reproduces the 100-NN search-time scaling experiment. At laptop
// scale the ground truth is capped at GTK, so K = min(100, GTK).
func Fig10(w io.Writer, c ExpConfig) error {
	k := 100
	if k > c.GTK {
		k = c.GTK
	}
	return figScaling(w, c, k, 0.90,
		fmt.Sprintf("Figure 10: %d-NN search time vs N at 90%% precision (SIFT-like)", k))
}

// Fig11 reproduces the K-scaling experiment: search time vs the number of
// requested neighbors at fixed N and precision.
func Fig11(w io.Writer, c ExpConfig) error {
	n := c.n(8000)
	idx, ds, _, err := siftNSG(n, c)
	if err != nil {
		return err
	}
	search := nsgSearch(idx)
	fmt.Fprintf(w, "Figure 11: K-NN search time vs K at 99%% precision (SIFT-like, n=%d)\n", n)
	fmt.Fprintf(w, "%6s %14s\n", "K", "ms/query")
	var fit series
	for _, k := range []int{1, 2, 5, 10, 20, 50, 100} {
		if k > c.GTK {
			break
		}
		if ms, ok := searchTimeAtPrecision(search, nsgEfforts(k), ds, k, 0.99); ok {
			fit.add(w, float64(k), ms, "%6d %14.4f\n", k, ms)
		} else {
			fmt.Fprintf(w, "%6d       (target precision unreachable)\n", k)
		}
	}
	fit.print(w, "time ~ K", "paper reports ≈ K^0.46")
	return nil
}

// Fig12 reproduces the indexing-time scaling experiment: Algorithm-2 time
// (search-collect-select + tree spanning, excluding the kNN graph) vs N.
// Every N gets the same NN-Descent kNN graph builder, and the time is
// core.NSGBuild's own phase total.
func Fig12(w io.Writer, c ExpConfig) error {
	fmt.Fprintln(w, "Figure 12: NSG Algorithm-2 indexing time vs N (SIFT-like)")
	fmt.Fprintf(w, "%10s %14s\n", "N", "seconds")
	var fit series
	for _, n := range scalingSubsets(c) {
		_, _, st, err := siftNSG(n, c)
		if err != nil {
			return err
		}
		t2 := st.Phases.Total().Seconds()
		fit.add(w, float64(n), t2, "%10d %14.3f\n", n, t2)
	}
	fit.print(w, "time ~ N", "paper reports ≈ N^1.3")
	return nil
}

// Table5 reproduces the Taobao e-commerce experiment: single-query response
// time to reach 98% precision (SQR98) for sharded NSG vs the IVFPQ
// baseline, at three scaled dataset sizes.
func Table5(w io.Writer, c ExpConfig) error {
	fmt.Fprintln(w, "Table 5: e-commerce scenario — single-query response time at 98% precision")
	fmt.Fprintf(w, "%-8s %-10s %4s %12s\n", "dataset", "algorithm", "NT", "SQR98 (ms)")

	rows := []struct {
		name   string
		n      int
		shards int
		withPQ bool
	}{
		{"E10M", c.n(10000), 1, true},
		{"E45M", c.n(20000), 12, true},
		{"E2B", c.n(40000), 32, false},
	}
	k := 10
	for _, row := range rows {
		ds, err := dataset.ECommerceLike(dataset.Config{N: row.n, Queries: c.Queries, GTK: c.GTK, Seed: c.Seed})
		if err != nil {
			return err
		}
		report := func(alg string, ms float64, ok bool) {
			if ok {
				fmt.Fprintf(w, "%-8s %-10s %4d %12.3f\n", row.name, alg, row.shards, ms)
			} else {
				fmt.Fprintf(w, "%-8s %-10s %4d     (98%% unreachable)\n", row.name, alg, row.shards)
			}
		}
		search, done, err := table5NSG(ds, row.shards, c.Seed)
		if err != nil {
			return err
		}
		ms, ok := searchTimeAtPrecision(search, nsgEfforts(k), ds, k, 0.98)
		report("NSG", ms, ok)
		done()
		if row.withPQ {
			pqp := ivfpq.DefaultParams()
			pqp.NList = 128
			pq, err := ivfpq.Build(ds.Base, pqp)
			if err != nil {
				return err
			}
			ms, ok := searchTimeAtPrecision(func(q []float32, k, nprobe int, c *vecmath.Counter) []vecmath.Neighbor {
				return pq.Search(q, k, nprobe, 8*k, c)
			}, []int{1, 2, 4, 8, 16, 32, 64, 128}, ds, k, 0.98)
			report("IVFPQ", ms, ok)
		}
	}
	return nil
}

// table5NSG builds one Table 5 row's NSG: a single core.NSG for the 1-shard
// row, otherwise that many shards searched in parallel. The returned func
// releases the index.
func table5NSG(ds dataset.Dataset, shards int, seed int64) (SearchFunc, func(), error) {
	if shards == 1 {
		idx, _, err := buildPlainNSG(ds.Base, 40, 60, seed)
		if err != nil {
			return nil, nil, err
		}
		return nsgSearch(idx), func() {}, nil
	}
	return shardedNSG(ds.Base, shards, ds.Base.Rows <= 6000, seed)
}

// shardedNSG builds the public index fig7 and table5 fan out over: base
// split into shards NSGs by Options.Shards, the pipeline a shipped index
// runs, with kNN K 20, pool L 40 and degree cap 30 (exact selects the exact
// kNN builder). An effort is each shard's pool, as it is the 1-core rows':
// the query's budget is shards x effort, which the index splits back. The
// search writes into buffers the closure reuses, as the 1-core rows'
// context does, and the returned func closes the index.
func shardedNSG(base vecmath.Matrix, shards int, exact bool, seed int64) (SearchFunc, func(), error) {
	opts := nsg.Options{GraphK: 20, BuildL: 40, MaxDegree: 30, ExactKNN: exact, Seed: seed, Shards: shards}
	idx, err := nsg.BuildFromFlat(base.Data, base.Dim, opts)
	if err != nil {
		return nil, nil, err
	}
	var p nsg.SearchParams
	var res []vecmath.Neighbor
	return func(q []float32, k, effort int, _ *vecmath.Counter) []vecmath.Neighbor {
		p.L = shards * effort
		p.IDs, p.Dists = idx.SearchWith(q, k, p)
		res = res[:0]
		for i, id := range p.IDs {
			res = append(res, vecmath.Neighbor{ID: id, Dist: p.Dists[i]})
		}
		return res
	}, idx.Close, nil
}

// RunAll executes every experiment in order, matching the paper's layout.
func RunAll(w io.Writer, c ExpConfig) error {
	if err := Table1(w, c); err != nil {
		return err
	}
	fmt.Fprintln(w)
	suites, err := buildAllSuites(c, true)
	if err != nil {
		return err
	}
	for _, f := range []func(io.Writer, map[string]*Suite){Table2, Table3, Table4, Fig6, Fig8} {
		f(w, suites)
		fmt.Fprintln(w)
	}
	for _, exp := range []func(io.Writer, ExpConfig) error{Fig7, Fig9, Fig10, Fig11, Fig12} {
		if err := exp(w, c); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return Table5(w, c)
}

// Experiments maps experiment ids (as accepted by cmd/bench -exp) to
// runners. Table/figure functions that share suites build them on demand.
func Experiments() map[string]func(io.Writer, ExpConfig) error {
	withSuites := func(f func(io.Writer, map[string]*Suite), extra bool) func(io.Writer, ExpConfig) error {
		return func(w io.Writer, c ExpConfig) error {
			suites, err := buildAllSuites(c, extra)
			if err != nil {
				return err
			}
			f(w, suites)
			return nil
		}
	}
	return map[string]func(io.Writer, ExpConfig) error{
		"table1":   Table1,
		"table2":   withSuites(Table2, false),
		"table3":   withSuites(Table3, false),
		"table4":   withSuites(Table4, false),
		"table5":   Table5,
		"fig6":     withSuites(Fig6, false),
		"fig7":     Fig7,
		"fig8":     withSuites(Fig8, true),
		"fig9":     Fig9,
		"fig10":    Fig10,
		"fig11":    Fig11,
		"fig12":    Fig12,
		"deltar":   DeltaR,
		"hops":     HopScaling,
		"ablation": Ablation,
		"build":    BuildPerf,
		"quant":    Quantized,
		"filter":   FilteredSearch,
		"cluster":  ClusterServing,
		"all":      RunAll,
	}
}

// ExperimentIDs lists the valid -exp values in a stable order.
func ExperimentIDs() []string {
	return slices.Sorted(maps.Keys(Experiments()))
}
