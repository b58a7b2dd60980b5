package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/knngraph"
	"repro/internal/vecmath"
)

// This file adds the two theory-validation experiments from the paper's
// complexity analysis (Section 3.2 / Appendix I):
//
//   - EstimateDeltaR measures Δr, the minimum pairwise difference of side
//     lengths over sampled triangles, whose decay rate enters Theorem 2's
//     path-length bound. The paper reports Δr "decreases very slowly" and
//     is "almost a constant" on SIFT1M.
//   - HopScaling measures the average greedy search path length (hops) as
//     n grows; Theorem 2 predicts close-to-logarithmic growth.

// EstimateDeltaR samples triangles from the dataset and returns the minimum
// |δ(a,b) − δ(a,c)| over all side pairs — the Δr of Theorem 2 restricted to
// a sample (the exact minimum over all O(n³) triangles is unobservable at
// scale, and the paper's own estimates are sampled).
func EstimateDeltaR(base vecmath.Matrix, samples int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	min := math.Inf(1)
	for s := 0; s < samples; s++ {
		a := rng.Intn(base.Rows)
		b := rng.Intn(base.Rows)
		c := rng.Intn(base.Rows)
		if a == b || b == c || a == c {
			continue
		}
		ab := math.Sqrt(float64(vecmath.L2(base.Row(a), base.Row(b))))
		ac := math.Sqrt(float64(vecmath.L2(base.Row(a), base.Row(c))))
		bc := math.Sqrt(float64(vecmath.L2(base.Row(b), base.Row(c))))
		for _, d := range []float64{math.Abs(ab - ac), math.Abs(ab - bc), math.Abs(ac - bc)} {
			if d > 0 && d < min {
				min = d
			}
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

// DeltaR prints Δr estimates across dataset sizes — the appendix-I style
// check that Δr decays slowly with n.
func DeltaR(w io.Writer, c ExpConfig) error {
	fmt.Fprintln(w, "Delta-r estimation (Theorem 2): sampled min side-length difference vs N")
	fmt.Fprintf(w, "%10s %14s %14s\n", "N", "SIFT-like", "GIST-like")
	for _, n := range scalingSubsets(c) {
		sift, err := dataset.SIFTLike(dataset.Config{N: n, Queries: 1, GTK: 1, Seed: c.Seed})
		if err != nil {
			return err
		}
		gn := n / 4
		if gn < 256 {
			gn = 256
		}
		gist, err := dataset.GISTLike(dataset.Config{N: gn, Queries: 1, GTK: 1, Seed: c.Seed})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%10d %14.5f %14.5f\n", n,
			EstimateDeltaR(sift.Base, 20000, c.Seed),
			EstimateDeltaR(gist.Base, 20000, c.Seed))
	}
	fmt.Fprintln(w, "(paper: Δr nearly constant on SIFT1M, ~O(n^-1/18.9) on GIST1M)")
	return nil
}

// HopScaling prints the average greedy path length (Algorithm 1 pool
// expansions) against n at fixed precision — Theorem 2's near-logarithmic
// path-length prediction, observable directly because every search result
// reports its expansion count.
func HopScaling(w io.Writer, c ExpConfig) error {
	fmt.Fprintln(w, "Greedy path length vs N (Theorem 2): hops at fixed pool size")
	fmt.Fprintf(w, "%10s %12s %14s\n", "N", "avg hops", "hops/log2(N)")
	var fit series
	for _, n := range scalingSubsets(c) {
		idx, ds, _, err := siftNSG(n, c)
		if err != nil {
			return err
		}
		ctx := core.NewSearchContext()
		hops := measure(ds.GT, 10, 40, func(qi int, c *vecmath.Counter) core.SearchResult {
			return idx.Query(ctx, ds.Queries.Row(qi), core.Query{K: 10, L: 40, Counter: c})
		}).Hops
		fit.add(w, float64(n), hops, "%10d %12.1f %14.2f\n", n, hops, hops/math.Log2(float64(n)))
	}
	fit.print(w, "hops ~ N", "Theorem 2 predicts ≈ N^{1/d}·log N — near-flat")
	return nil
}

// buildPlainNSG builds one NSG over a copy of base (the index owns its
// rows, so a later Relayout leaves the caller's untouched): an NN-Descent
// kNN graph with knnK neighbors at every size, so a scaling fit compares
// one pipeline, then Algorithm 2 with pool l and degree cap 30. The
// returned stats' Phases time core.NSGBuild alone, excluding the kNN graph.
func buildPlainNSG(base vecmath.Matrix, knnK, l int, seed int64) (*core.NSG, core.BuildStats, error) {
	base = base.Clone()
	p := knngraph.DefaultParams(min(knnK, base.Rows-1))
	p.Seed = seed
	knn, err := knngraph.BuildNNDescent(base, p)
	if err != nil {
		return nil, core.BuildStats{}, err
	}
	return core.NSGBuild(knn, base, core.BuildParams{L: l, M: 30, Seed: seed})
}

// siftNSG builds one NSG over a fresh SIFT-like dataset of n points.
func siftNSG(n int, c ExpConfig) (*core.NSG, dataset.Dataset, core.BuildStats, error) {
	ds, err := dataset.SIFTLike(dataset.Config{N: n, Queries: c.Queries, GTK: c.GTK, Seed: c.Seed})
	if err != nil {
		return nil, ds, core.BuildStats{}, err
	}
	idx, st, err := buildPlainNSG(ds.Base, 40, 60, c.Seed)
	return idx, ds, st, err
}

// nsgSearch adapts idx to a SearchFunc: Algorithm 1 through core.Query on
// the calling goroutine, one context reused across queries.
func nsgSearch(idx *core.NSG) SearchFunc {
	ctx := core.NewSearchContext()
	return func(q []float32, k, l int, c *vecmath.Counter) []vecmath.Neighbor {
		return idx.Query(ctx, q, core.Query{K: k, L: l, Counter: c}).Neighbors
	}
}
