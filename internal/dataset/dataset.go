// Package dataset generates the synthetic workloads used throughout the
// reproduction and computes exact ground truth for them.
//
// The paper evaluates on SIFT1M, GIST1M, two synthetics (RAND4M, GAUSS5M),
// DEEP100M and a proprietary Taobao e-commerce corpus. The public corpora
// are not shipped with this repository (the module is offline), so each is
// replaced by a generator that matches the properties NSG's behaviour
// actually depends on: dimensionality, value range, and — crucially — local
// intrinsic dimension (LID), which the paper highlights as the driver of
// search difficulty. Cluster-structured generators embed a low-dimensional
// latent manifold into the ambient space to hit a target LID; the pure
// synthetics (Uniform, Gaussian) use the paper's exact distributions.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graphutil"
	"repro/internal/vecmath"
)

// Dataset bundles base vectors, query vectors and exact ground truth, which
// is the shape every experiment in the paper consumes.
type Dataset struct {
	Name    string
	Base    vecmath.Matrix
	Queries vecmath.Matrix
	// GT[i] holds the ids of the exact nearest neighbors of query i in Base,
	// ascending by distance. len(GT[i]) == GTK.
	GT  [][]int32
	GTK int
}

// Config controls a generator invocation.
type Config struct {
	N       int   // number of base vectors
	Queries int   // number of query vectors
	Dim     int   // ambient dimension
	GTK     int   // ground-truth depth (neighbors per query)
	Seed    int64 // RNG seed; generators are deterministic given a seed
}

func (c Config) validate() error {
	if c.N <= 0 || c.Queries < 0 || c.Dim <= 0 {
		return fmt.Errorf("dataset: invalid config N=%d Queries=%d Dim=%d", c.N, c.Queries, c.Dim)
	}
	if c.GTK <= 0 {
		return fmt.Errorf("dataset: GTK must be positive, got %d", c.GTK)
	}
	if c.GTK > c.N {
		return fmt.Errorf("dataset: GTK=%d exceeds N=%d", c.GTK, c.N)
	}
	return nil
}

// clusterSpec drives the manifold-mixture generators. A single random
// Dim×latent basis B is drawn per dataset; cluster centers live in the
// latent space and points are drawn as
//
//	x = B(c_k + z) + noise,   c_k ~ N(0, centerStd² I),  z ~ N(0, withinStd² I)
//
// so every cluster lies on the same low-dimensional manifold. The latent
// dimension sets the LID the estimator sees; the centerStd/withinStd ratio
// sets how pronounced the cluster structure is. Keeping that ratio moderate
// keeps the support connected — real descriptor corpora (SIFT, GIST, deep
// embeddings) are clumpy but not a union of isolated islands, and graph
// navigability depends on that.
type clusterSpec struct {
	clusters   int
	latentDim  int
	centerStd  float64 // spread of cluster centers in latent units
	withinStd  float64 // within-cluster spread in latent units
	noiseStd   float64 // isotropic ambient noise
	zipfSkew   float64 // >0: heavy-tailed cluster sizes (e-commerce); 0: uniform sizes
	quantize   bool    // round to integers (SIFT-style descriptors)
	valueScale float64 // post-hoc scale applied to all coordinates
	valueShift float64 // post-hoc shift applied to all coordinates
	clampLo    float64
	clampHi    float64
	normalize  bool // unit-norm rows (DEEP-style descriptors)
}

func generateClustered(cfg Config, spec clusterSpec) (Dataset, error) {
	if err := cfg.validate(); err != nil {
		return Dataset{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// One shared basis: latent → ambient. Entries scaled so |B u| ≈ |u|.
	basis := make([][]float64, spec.latentDim)
	for l := 0; l < spec.latentDim; l++ {
		v := make([]float64, cfg.Dim)
		for j := range v {
			v[j] = rng.NormFloat64() / math.Sqrt(float64(cfg.Dim))
		}
		basis[l] = v
	}
	centers := make([][]float64, spec.clusters)
	for c := 0; c < spec.clusters; c++ {
		center := make([]float64, spec.latentDim)
		for j := range center {
			center[j] = rng.NormFloat64() * spec.centerStd
		}
		centers[c] = center
	}

	// Cluster assignment probabilities. Zipf skew models the e-commerce
	// "popular category" imbalance.
	weights := make([]float64, spec.clusters)
	var wsum float64
	for c := range weights {
		if spec.zipfSkew > 0 {
			weights[c] = 1 / math.Pow(float64(c+1), spec.zipfSkew)
		} else {
			weights[c] = 1
		}
		wsum += weights[c]
	}
	cum := make([]float64, spec.clusters)
	acc := 0.0
	for c := range weights {
		acc += weights[c] / wsum
		cum[c] = acc
	}
	pickCluster := func(r *rand.Rand) int {
		u := r.Float64()
		for c, cv := range cum {
			if u <= cv {
				return c
			}
		}
		return spec.clusters - 1
	}

	sample := func(r *rand.Rand, out []float32) {
		c := pickCluster(r)
		center := centers[c]
		z := make([]float64, spec.latentDim)
		for l := range z {
			z[l] = center[l] + r.NormFloat64()*spec.withinStd
		}
		for j := 0; j < cfg.Dim; j++ {
			var v float64
			for l := 0; l < spec.latentDim; l++ {
				v += basis[l][j] * z[l]
			}
			v += r.NormFloat64() * spec.noiseStd
			v = v*spec.valueScale + spec.valueShift
			if spec.clampHi > spec.clampLo {
				v = math.Max(spec.clampLo, math.Min(spec.clampHi, v))
			}
			if spec.quantize {
				v = math.Round(v)
			}
			out[j] = float32(v)
		}
		if spec.normalize {
			vecmath.Normalize(out)
		}
	}

	base := vecmath.NewMatrix(cfg.N, cfg.Dim)
	for i := 0; i < cfg.N; i++ {
		sample(rng, base.Row(i))
	}
	queries := vecmath.NewMatrix(cfg.Queries, cfg.Dim)
	for i := 0; i < cfg.Queries; i++ {
		sample(rng, queries.Row(i))
	}

	ds := Dataset{Base: base, Queries: queries, GTK: cfg.GTK}
	ds.GT = GroundTruth(base, queries, cfg.GTK, nil)
	return ds, nil
}

// SIFTLike mimics SIFT1M: 128-d integer-valued descriptors in [0,255] with
// strong cluster structure and low intrinsic dimension (paper Table 1: LID
// 12.9 at D=128).
func SIFTLike(cfg Config) (Dataset, error) {
	if cfg.Dim == 0 {
		cfg.Dim = 128
	}
	ds, err := generateClustered(cfg, clusterSpec{
		clusters:   40,
		latentDim:  14,
		centerStd:  1.4,
		withinStd:  1.0,
		noiseStd:   0.08,
		valueScale: 75,
		valueShift: 128,
		clampLo:    0,
		clampHi:    255,
		quantize:   true,
	})
	ds.Name = "SIFT-like"
	return ds, err
}

// GISTLike mimics GIST1M: 960-d real-valued descriptors in [0,1.5] with
// higher intrinsic dimension (paper Table 1: LID 29.1 at D=960).
func GISTLike(cfg Config) (Dataset, error) {
	if cfg.Dim == 0 {
		cfg.Dim = 960
	}
	ds, err := generateClustered(cfg, clusterSpec{
		clusters:   25,
		latentDim:  150,
		centerStd:  1.2,
		withinStd:  1.0,
		noiseStd:   0.02,
		valueScale: 0.4,
		valueShift: 0.75,
		clampLo:    0,
		clampHi:    1.5,
	})
	ds.Name = "GIST-like"
	return ds, err
}

// DEEPLike mimics DEEP1B subsets: 96-d unit-norm deep descriptors.
func DEEPLike(cfg Config) (Dataset, error) {
	if cfg.Dim == 0 {
		cfg.Dim = 96
	}
	ds, err := generateClustered(cfg, clusterSpec{
		clusters:   32,
		latentDim:  16,
		centerStd:  1.2,
		withinStd:  1.0,
		noiseStd:   0.05,
		valueScale: 1,
		normalize:  true,
	})
	ds.Name = "DEEP-like"
	return ds, err
}

// ECommerceLike mimics the Taobao user/commodity embeddings: 128-d with
// heavy-tailed category sizes (a few giant clusters and a long tail).
func ECommerceLike(cfg Config) (Dataset, error) {
	if cfg.Dim == 0 {
		cfg.Dim = 128
	}
	ds, err := generateClustered(cfg, clusterSpec{
		clusters:   30,
		latentDim:  14,
		centerStd:  1.3,
		withinStd:  1.0,
		noiseStd:   0.05,
		valueScale: 1,
		zipfSkew:   1.1,
	})
	ds.Name = "ECommerce-like"
	return ds, err
}

// Uniform reproduces RAND4M's distribution exactly at reduced scale:
// coordinates i.i.d. U(0,1). The paper reports LID 49.5 at D=128; with no
// manifold structure LID tracks the ambient dimension, which is why this is
// the hardest family.
func Uniform(cfg Config) (Dataset, error) {
	if cfg.Dim == 0 {
		cfg.Dim = 128
	}
	if err := cfg.validate(); err != nil {
		return Dataset{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	base := vecmath.NewMatrix(cfg.N, cfg.Dim)
	for i := range base.Data {
		base.Data[i] = rng.Float32()
	}
	queries := vecmath.NewMatrix(cfg.Queries, cfg.Dim)
	for i := range queries.Data {
		queries.Data[i] = rng.Float32()
	}
	ds := Dataset{Name: "RAND", Base: base, Queries: queries, GTK: cfg.GTK}
	ds.GT = GroundTruth(base, queries, cfg.GTK, nil)
	return ds, nil
}

// Gaussian reproduces GAUSS5M: coordinates i.i.d. N(0,3) (standard deviation
// 3, matching the paper's N(0,3) notation).
func Gaussian(cfg Config) (Dataset, error) {
	if cfg.Dim == 0 {
		cfg.Dim = 128
	}
	if err := cfg.validate(); err != nil {
		return Dataset{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	base := vecmath.NewMatrix(cfg.N, cfg.Dim)
	for i := range base.Data {
		base.Data[i] = float32(rng.NormFloat64() * 3)
	}
	queries := vecmath.NewMatrix(cfg.Queries, cfg.Dim)
	for i := range queries.Data {
		queries.Data[i] = float32(rng.NormFloat64() * 3)
	}
	ds := Dataset{Name: "GAUSS", Base: base, Queries: queries, GTK: cfg.GTK}
	ds.GT = GroundTruth(base, queries, cfg.GTK, nil)
	return ds, nil
}

// GroundTruth computes, for each query, the ids of its k exact nearest base
// vectors (ascending by distance) by parallel brute force. A non-nil pass
// bitmap (bit i of pass[i/64] set for row i) restricts the answer to the
// rows it passes, the exact answer a filtered search is scored against;
// nil passes every row.
func GroundTruth(base, queries vecmath.Matrix, k int, pass []uint64) [][]int32 {
	out := make([][]int32, queries.Rows)
	graphutil.ParallelFor(queries.Rows, func(qi int) {
		q := queries.Row(qi)
		top := vecmath.NewTopK(k)
		for i := 0; i < base.Rows; i++ {
			if pass == nil || pass[i>>6]&(1<<uint(i&63)) != 0 {
				top.Push(int32(i), vecmath.L2(q, base.Row(i)))
			}
		}
		res := top.Result()
		ids := make([]int32, len(res))
		for j, n := range res {
			ids[j] = n.ID
		}
		out[qi] = ids
	})
	return out
}

// Recall returns |got ∩ gt[:k]| / k — the paper's "precision" metric
// (Equation 1) for a single query.
func Recall(got []int32, gt []int32, k int) float64 {
	if k > len(gt) {
		k = len(gt)
	}
	if k == 0 {
		return 0
	}
	truth := make(map[int32]struct{}, k)
	for _, id := range gt[:k] {
		truth[id] = struct{}{}
	}
	hit := 0
	for i, id := range got {
		if i >= k {
			break
		}
		if _, ok := truth[id]; ok {
			hit++
		}
	}
	return float64(hit) / float64(k)
}

// MeanRecall averages Recall over a batch of queries.
func MeanRecall(got [][]int32, gt [][]int32, k int) float64 {
	if len(got) == 0 {
		return 0
	}
	var s float64
	for i := range got {
		s += Recall(got[i], gt[i], k)
	}
	return s / float64(len(got))
}
