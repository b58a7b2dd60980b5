package dataset

import (
	"math"
	"math/rand"

	"repro/internal/graphutil"
	"repro/internal/vecmath"
)

// EstimateLID estimates the local intrinsic dimension of the base set with
// the maximum-likelihood estimator of Levina & Bickel over k-nearest-neighbor
// distances (the estimator family cited by the paper, Costa et al. [11]).
//
// For a point x with ascending neighbor distances r_1..r_k, the local MLE is
//
//	m(x) = ( (1/(k-1)) * Σ_{j=1}^{k-1} ln(r_k / r_j) )^{-1}
//
// and the dataset LID is the average of m(x) over a sample of points.
// sample bounds the number of anchor points (the estimator is O(sample·n)).
func EstimateLID(base vecmath.Matrix, k, sample int, seed int64) float64 {
	if base.Rows < k+2 {
		return float64(base.Dim)
	}
	if sample > base.Rows {
		sample = base.Rows
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(base.Rows)[:sample]

	estimates := make([]float64, sample)
	graphutil.ParallelFor(sample, func(si int) {
		i := perm[si]
		x := base.Row(i)
		top := vecmath.NewTopK(k + 1) // +1: the point itself at distance 0
		for j := 0; j < base.Rows; j++ {
			top.Push(int32(j), vecmath.L2(x, base.Row(j)))
		}
		ns := top.Result()
		// Drop self-distance and any exact duplicates at distance 0: the
		// estimator needs strictly positive radii.
		dists := make([]float64, 0, k)
		for _, n := range ns {
			if n.Dist <= 0 {
				continue
			}
			dists = append(dists, math.Sqrt(float64(n.Dist)))
		}
		if len(dists) < 2 {
			estimates[si] = float64(base.Dim)
			return
		}
		rk := dists[len(dists)-1]
		var s float64
		for _, r := range dists[:len(dists)-1] {
			s += math.Log(rk / r)
		}
		if s <= 0 {
			estimates[si] = float64(base.Dim)
			return
		}
		estimates[si] = float64(len(dists)-1) / s
	})

	var mean float64
	for _, e := range estimates {
		mean += e
	}
	return mean / float64(len(estimates))
}
