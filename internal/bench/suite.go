package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dpg"
	"repro/internal/efanna"
	"repro/internal/fanng"
	"repro/internal/graphutil"
	"repro/internal/hnsw"
	"repro/internal/ivfpq"
	"repro/internal/knngraph"
	"repro/internal/lsh"
	"repro/internal/scan"
	"repro/internal/vecmath"
)

// GraphIndexInfo is one row of Tables 2-4: a built graph method with its
// statistics and a sweepable search adapter.
type GraphIndexInfo struct {
	Name       string
	BuildTime  time.Duration // the method's own construction (Table 3's t2); KGraph's is its kNN graph
	KNNTime    time.Duration // the shared kNN graph it starts from (t1); zero for HNSW and KGraph
	IndexBytes int64
	AOD        float64
	MOD        int
	NNPct      float64
	SCC        int // strongly connected components; fixed-entry methods report 1 iff all reachable
	Method     Method
}

// Suite bundles one dataset with every index the paper compares on it.
type Suite struct {
	Data    dataset.Dataset
	KNN     *graphutil.Graph // shared kNN graph (k = SuiteParams.KNNK)
	KNNTime time.Duration
	Graph   []GraphIndexInfo // graph-based methods in Table 2 order

	// Non-graph methods for Figure 8 and the scan reference.
	LSH    *lsh.Index
	IVFPQ  *ivfpq.Index
	Forest *efanna.KDForest
}

// SuiteParams sizes the suite.
type SuiteParams struct {
	KNNK      int   // k of the shared kNN graph (must cover FANNG's candidate k)
	NSGL      int   // Algorithm 2 pool size
	NSGM      int   // NSG degree cap
	HNSWM     int   // HNSW M
	DPGKeep   int   // DPG kept edges
	Efforts   []int // sweep efforts for all graph methods
	Seed      int64
	WithExtra bool // also build LSH/IVFPQ/forest (needed by fig7/fig8/table5)
}

// DefaultSuiteParams returns the parameter set used across the experiments.
func DefaultSuiteParams() SuiteParams {
	return SuiteParams{
		KNNK:    40,
		NSGL:    40,
		NSGM:    25,
		HNSWM:   12,
		DPGKeep: 20,
		Efforts: []int{10, 20, 40, 80, 160, 320},
		Seed:    1,
	}
}

// sliceKNN returns a view of the shared kNN graph truncated to k neighbors
// per node (adjacency lists are ascending by distance, so prefixes are exact
// smaller-k graphs).
func sliceKNN(g *graphutil.Graph, k int) *graphutil.Graph {
	out := graphutil.New(g.N())
	for i := range g.Adj {
		out.Adj[i] = g.Adj[i][:min(k, len(g.Adj[i]))]
	}
	return out
}

// BuildSuite constructs every index on ds. Exact kNN construction is used up
// to ~6k points; NN-Descent beyond.
func BuildSuite(ds dataset.Dataset, p SuiteParams) (*Suite, error) {
	s := &Suite{Data: ds}
	n := ds.Base.Rows
	k := min(p.KNNK, n-1)

	start := time.Now()
	var err error
	if n <= 6000 {
		s.KNN, err = knngraph.BuildExact(ds.Base, k)
	} else {
		kp := knngraph.DefaultParams(k)
		kp.Seed = p.Seed
		s.KNN, err = knngraph.BuildNNDescent(ds.Base, kp)
	}
	if err != nil {
		return nil, fmt.Errorf("bench: kNN graph: %w", err)
	}
	s.KNNTime = time.Since(start)

	nn := graphutil.ExactNearest(ds.Base)
	// add appends one row. g is the graph the tables describe and entry its
	// fixed entry point, or -1 for a method that starts at random nodes.
	add := func(name string, g *graphutil.Graph, entry int32, bytes int64, knnTime, buildTime time.Duration, search SearchFunc) {
		scc := g.SCCCount()
		if entry >= 0 {
			scc = sccFixedEntry(g, entry)
		}
		deg := g.Degrees()
		s.Graph = append(s.Graph, GraphIndexInfo{
			Name: name, BuildTime: buildTime, KNNTime: knnTime, IndexBytes: bytes,
			AOD: deg.Avg, MOD: deg.Max, NNPct: g.NNPercent(nn), SCC: scc,
			Method: Method{Name: name, Efforts: p.Efforts, Search: search},
		})
	}
	randomStart := func(g *graphutil.Graph, starts int) SearchFunc {
		return countedOnly(&core.RandomStart{Graph: g, Base: ds.Base, Starts: starts, Rng: rand.New(rand.NewSource(p.Seed))}, p.Seed)
	}

	start = time.Now()
	nsgIdx, _, err := core.NSGBuild(s.KNN, ds.Base, core.BuildParams{L: p.NSGL, M: p.NSGM, Seed: p.Seed})
	if err != nil {
		return nil, fmt.Errorf("bench: NSG: %w", err)
	}
	nsgGraph := nsgIdx.FlatView().ToGraph()
	add("NSG", nsgGraph, nsgIdx.Navigating, nsgGraph.IndexBytes(), s.KNNTime, time.Since(start), nsgIdx.Search)

	// NSG-Naive, the ablation baseline of Section 4.1.2.
	start = time.Now()
	naive, err := core.PruneKNN(s.KNN, ds.Base, k, p.NSGM)
	if err != nil {
		return nil, fmt.Errorf("bench: NSG-Naive: %w", err)
	}
	add("NSG-Naive", naive, -1, naive.IndexBytes(), s.KNNTime, time.Since(start), randomStart(naive, 1))

	start = time.Now()
	hnswIdx, err := hnsw.Build(ds.Base, hnsw.Params{M: p.HNSWM, EfConstruction: 100, Seed: p.Seed})
	if err != nil {
		return nil, fmt.Errorf("bench: HNSW: %w", err)
	}
	add("HNSW", hnswIdx.Layer(0), hnswIdx.Entry(), hnswIdx.IndexBytes(), 0, time.Since(start), hnswIdx.Search)

	start = time.Now()
	fanngIdx, err := fanng.Build(s.KNN, ds.Base, fanng.Params{CandidateK: k, MaxDegree: p.NSGM + 10, TraversePasses: 2, Seed: p.Seed})
	if err != nil {
		return nil, fmt.Errorf("bench: FANNG: %w", err)
	}
	add("FANNG", fanngIdx.Graph, -1, fanngIdx.Graph.IndexBytes(), s.KNNTime, time.Since(start), countedOnly(fanngIdx, p.Seed))

	// Efanna: the kNN graph entered through a KD-forest.
	start = time.Now()
	s.Forest, err = efanna.BuildForest(ds.Base, efanna.DefaultForestParams())
	if err != nil {
		return nil, fmt.Errorf("bench: forest: %w", err)
	}
	efannaIdx, err := efanna.New(s.Forest, s.KNN, ds.Base, 64)
	if err != nil {
		return nil, fmt.Errorf("bench: Efanna: %w", err)
	}
	add("Efanna", s.KNN, -1, efannaIdx.IndexBytes(), s.KNNTime, time.Since(start), efannaIdx.Search)

	// KGraph: the kNN graph itself, searched from three random starts.
	add("KGraph", s.KNN, -1, s.KNN.IndexBytes(), 0, s.KNNTime, randomStart(s.KNN, 3))

	start = time.Now()
	dpgIdx, err := dpg.Build(sliceKNN(s.KNN, 2*p.DPGKeep), ds.Base, dpg.Params{Keep: p.DPGKeep, Seed: p.Seed})
	if err != nil {
		return nil, fmt.Errorf("bench: DPG: %w", err)
	}
	add("DPG", dpgIdx.Graph, -1, dpgIdx.Graph.IndexBytesRagged(), s.KNNTime, time.Since(start), countedOnly(dpgIdx, p.Seed))

	if p.WithExtra {
		s.LSH, err = lsh.Build(ds.Base, lsh.Params{Tables: 10, Bits: 12, Seed: p.Seed})
		if err != nil {
			return nil, fmt.Errorf("bench: LSH: %w", err)
		}
		pqp := ivfpq.DefaultParams()
		pqp.NList = core.NearPowerOfTwo(n / 50)
		if pqp.NList < 8 {
			pqp.NList = 8
		}
		for ds.Base.Dim%pqp.M != 0 {
			pqp.M /= 2
		}
		s.IVFPQ, err = ivfpq.Build(ds.Base, pqp)
		if err != nil {
			return nil, fmt.Errorf("bench: IVFPQ: %w", err)
		}
	}
	return s, nil
}

// sccFixedEntry mirrors Table 4's convention for fixed-entry methods: 1 if
// every node is reachable from the entry point, otherwise 1 + the number of
// unreachable nodes' components (reported simply as the count of unreached
// components via full SCC).
func sccFixedEntry(g *graphutil.Graph, entry int32) int {
	if g.ReachableFrom(entry) == g.N() {
		return 1
	}
	return g.SCCCount()
}

// NSGMethod extracts the NSG sweep adapter from the suite.
func (s *Suite) NSGMethod() Method { return s.Graph[0].Method }

// Method returns one of the suite's other searchers as a sweepable method:
// "Serial-Scan" (effort ignored; recall is always 1), "LSH" (effort =
// probes per table), "IVFPQ" (effort = nprobe; rerank 4k) or "KD-tree"
// (effort = distance checks; the randomized forest, Figure 8's Flann
// stand-in).
func (s *Suite) Method(name string, efforts []int) Method {
	m := Method{Name: name, Efforts: efforts}
	switch name {
	case "Serial-Scan":
		m.Search = func(q []float32, k, _ int, c *vecmath.Counter) []vecmath.Neighbor {
			return scan.Search(s.Data.Base, q, k, c)
		}
	case "LSH":
		m.Search = s.LSH.Search
	case "IVFPQ":
		m.Search = func(q []float32, k, effort int, c *vecmath.Counter) []vecmath.Neighbor {
			return s.IVFPQ.Search(q, k, effort, 4*k, c)
		}
	case "KD-tree":
		m.Search = s.Forest.SearchForest
	default:
		panic("bench: no suite method " + name)
	}
	return m
}

// countedOnly adapts a random-start searcher: the counted pass (non-nil
// counter) draws its starts from x's stream, as a lone sweep would, and the
// warm-up and timing passes draw from a twin seeded with seed.
func countedOnly(x *core.RandomStart, seed int64) SearchFunc {
	twin := *x
	twin.Rng = rand.New(rand.NewSource(seed))
	return func(q []float32, k, l int, c *vecmath.Counter) []vecmath.Neighbor {
		if c == nil {
			return twin.Search(q, k, l, nil)
		}
		return x.Search(q, k, l, c)
	}
}
