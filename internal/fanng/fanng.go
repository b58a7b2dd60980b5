// Package fanng implements the FANNG baseline (Harwood & Drummond, CVPR
// 2016): a graph built by applying RNG-style occlusion pruning to dense
// candidate lists, refined by traverse-and-add passes. FANNG searches with
// the same greedy routine as every other graph method but, being based on
// the plain RNG rule without the recursive MRNG acceptance, lacks
// monotonicity — the deficiency Section 3.3 of the NSG paper analyzes.
package fanng

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graphutil"
	"repro/internal/vecmath"
)

// Params configures Build.
type Params struct {
	// CandidateK is how many nearest neighbors per node seed the occlusion
	// pruning (FANNG prunes from a long sorted list).
	CandidateK int
	// MaxDegree caps the out-degree after pruning.
	MaxDegree int
	// TraversePasses is the number of traverse-and-add refinement passes:
	// random (start,target) searches that add an edge whenever greedy
	// search gets stuck before reaching the target.
	TraversePasses int
	Seed           int64
}

// DefaultParams returns settings matched to test-scale data.
func DefaultParams() Params {
	return Params{CandidateK: 50, MaxDegree: 30, TraversePasses: 2, Seed: 1}
}

// Build prunes each node's first CandidateK kNN neighbors with the
// occlusion rule (core.PruneKNN), then refines the graph with the
// traverse-and-add passes. knn lists must be ascending by distance. The
// returned searcher draws its random starts from the rng the passes used,
// continuing the build's stream.
func Build(knn *graphutil.Graph, base vecmath.Matrix, p Params) (*core.RandomStart, error) {
	if p.CandidateK <= 0 {
		p.CandidateK = 50
	}
	if p.MaxDegree <= 0 {
		p.MaxDegree = 30
	}
	g, err := core.PruneKNN(knn, base, p.CandidateK, p.MaxDegree)
	if err != nil {
		return nil, fmt.Errorf("fanng: %w", err)
	}
	n := base.Rows
	rng := rand.New(rand.NewSource(p.Seed))

	// Traverse-and-add: for random (start, target) pairs, walk greedily
	// toward target; if stuck at a local optimum that is not the target,
	// add a direct edge from the stuck node to the target.
	for pass := 0; pass < p.TraversePasses; pass++ {
		for trial := 0; trial < n; trial++ {
			s := int32(rng.Intn(n))
			t := int32(rng.Intn(n))
			if s == t {
				continue
			}
			stuck, reached := greedyWalk(g, base, s, t)
			if !reached && len(g.Adj[stuck]) < p.MaxDegree && !g.HasEdge(stuck, t) {
				g.AddEdge(stuck, t)
			}
		}
	}
	return &core.RandomStart{Graph: g, Base: base, Starts: 1, Rng: rng}, nil
}

// greedyWalk walks from s toward t choosing the neighbor closest to t.
// Returns the final node and whether it reached t.
func greedyWalk(g *graphutil.Graph, base vecmath.Matrix, s, t int32) (int32, bool) {
	target := base.Row(int(t))
	cur := s
	curDist := vecmath.L2(base.Row(int(cur)), target)
	for steps := 0; steps < g.N(); steps++ {
		if cur == t {
			return cur, true
		}
		best, bestDist := cur, curDist
		for _, nb := range g.Adj[cur] {
			d := vecmath.L2(base.Row(int(nb)), target)
			if d < bestDist {
				best, bestDist = nb, d
			}
		}
		if best == cur {
			return cur, false
		}
		cur, curDist = best, bestDist
	}
	return cur, cur == t
}
