package bench

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graphutil"
	"repro/internal/knngraph"
	"repro/internal/vecmath"
)

// Ablation prints the DESIGN.md §5 ablation table: each NSG design choice
// is toggled in isolation on one SIFT-like dataset and scored by recall and
// distance computations at a fixed search budget.
func Ablation(w io.Writer, c ExpConfig) error {
	n := c.n(6000)
	ds, err := dataset.SIFTLike(dataset.Config{N: n, Queries: c.Queries, GTK: c.GTK, Seed: c.Seed})
	if err != nil {
		return err
	}
	k := 40
	knn, err := knngraph.BuildExact(ds.Base, k)
	if err != nil {
		return err
	}
	idx, _, err := core.NSGBuild(knn, ds.Base, core.BuildParams{L: 60, M: 30, Seed: c.Seed})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "Ablations on SIFT-like (n=%d), recall@10 and distance computations at l=60\n", n)
	fmt.Fprintf(w, "%-34s %9s %12s %10s %10s\n", "variant", "recall", "dist/query", "avg deg", "QPS")

	score := func(name string, g *graphutil.Graph, search SearchFunc) {
		pt := RecallSweep(Method{Search: search, Efforts: []int{60}}, ds.Queries, ds.GT, 10)[0]
		fmt.Fprintf(w, "%-34s %9.4f %12.0f %10.1f %10.0f\n", name, pt.Recall, pt.DistComps, g.Degrees().Avg, pt.QPS)
	}

	// 1. Full NSG (reference): CSR layout, reused context.
	g := idx.FlatView().ToGraph()
	score("NSG (full Algorithm 2)", g, nsgSearch(idx))

	// 1b. Layout/allocation ablation: same graph and entry point through
	// the ragged adjacency lists with a freshly allocated context per query
	// (the seed's allocation behavior). Recall and distance counts are
	// identical by construction; only QPS moves.
	score("NSG + ragged lists, fresh scratch", g, func(q []float32, k, l int, cnt *vecmath.Counter) []vecmath.Neighbor {
		fresh := core.NewSearchContext()
		return core.SearchOnGraphListCtx(fresh, g.Adj, ds.Base, q, []int32{idx.Navigating}, k, l, cnt, nil).Neighbors
	})

	// 2. Entry point: random instead of the navigating node, same graph.
	// Like countedOnly, the counted pass draws from one stream and the
	// uncounted passes from a twin.
	rngStates := [2]int64{12345, 12345}
	score("NSG + random entry", g, func(q []float32, k, l int, cnt *vecmath.Counter) []vecmath.Neighbor {
		st := &rngStates[0]
		if cnt == nil {
			st = &rngStates[1]
		}
		*st = *st*6364136223846793005 + 1442695040888963407
		start := int32(uint64(*st) % uint64(n))
		return core.SearchOnGraph(g.Adj, ds.Base, q, []int32{start}, k, l, cnt, nil).Neighbors
	})

	// 3. Candidates: kNN-only (NSG-Naive), same edge rule and cap.
	naive, err := core.PruneKNN(knn, ds.Base, k, 30)
	if err != nil {
		return err
	}
	score("kNN-only candidates (NSG-Naive)", naive, countedOnly(&core.RandomStart{
		Graph: naive, Base: ds.Base, Starts: 1, Rng: rand.New(rand.NewSource(c.Seed)),
	}, c.Seed))

	// 4. Edge rule: plain truncation of the kNN lists at the same cap.
	trunc := sliceKNN(knn, 30)
	score("kNN truncation (no MRNG rule)", trunc, func(q []float32, k, l int, cnt *vecmath.Counter) []vecmath.Neighbor {
		return core.SearchOnGraph(trunc.Adj, ds.Base, q, []int32{idx.Navigating}, k, l, cnt, nil).Neighbors
	})

	// 5. Degree cap sweep.
	for _, m := range []int{10, 20, 40} {
		v, _, err := core.NSGBuild(knn, ds.Base, core.BuildParams{L: 60, M: m, Seed: c.Seed})
		if err != nil {
			return err
		}
		score(fmt.Sprintf("NSG with degree cap m=%d", m), v.FlatView().ToGraph(), v.Search)
	}
	return nil
}
