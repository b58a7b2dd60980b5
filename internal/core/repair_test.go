//go:build !race

// The repair-cap test builds six 2 000-8 000-row indexes: a few seconds,
// and about a minute under the race detector, whose job already runs the
// parallel build through the other build tests.

package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knngraph"
	"repro/internal/vecmath"
)

// islandRows draws n rows of a manifold mixture whose 48 cluster centres
// are spread wider (1.4) than a cluster's own radius, on 24 latent
// dimensions: the corpus on which a build used to lose a cluster (ROADMAP
// item 9(d)), and on which the connectivity repair has work to do.
func islandRows(seed int64, n, dim int) vecmath.Matrix {
	const clusters, latent = 48, 24
	shape := rand.New(rand.NewSource(0))
	basis := make([]float64, latent*dim)
	for i := range basis {
		basis[i] = shape.NormFloat64() / math.Sqrt(latent)
	}
	centers := make([]float64, clusters*latent)
	for i := range centers {
		centers[i] = shape.NormFloat64() * 1.4
	}
	r := rand.New(rand.NewSource(seed))
	m := vecmath.NewMatrix(n, dim)
	z := make([]float64, latent)
	for i := range n {
		c := centers[r.Intn(clusters)*latent:][:latent]
		for l := range z {
			z[l] = c[l] + r.NormFloat64()
		}
		row := m.Row(i)
		for j := range row {
			v := r.NormFloat64() * 0.08
			for l, zl := range z {
				v += zl * basis[l*dim+j]
			}
			row[j] = float32(math.Round(math.Min(255, math.Max(0, v*75+128))))
		}
	}
	return m
}

// TestRepairHoldsDegreeCap builds the five corpora ROADMAP item 27 measured
// the degree cap on, plus the island mixture, through the public pipeline's
// kNN graph and parameters. The connectivity repair must leave every node
// reachable and every row within M, apart from the repair edges BuildStats
// counts as over the cap.
func TestRepairHoldsDegreeCap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds six 2 000-8 000-row indexes")
	}
	corpora := []struct {
		name string
		make func() (vecmath.Matrix, error)
	}{
		{"sift", func() (vecmath.Matrix, error) {
			ds, err := dataset.SIFTLike(dataset.Config{N: 8000, Queries: 1, GTK: 1, Seed: 1})
			return ds.Base, err
		}},
		{"deep", func() (vecmath.Matrix, error) {
			ds, err := dataset.DEEPLike(dataset.Config{N: 8000, Queries: 1, GTK: 1, Seed: 1})
			return ds.Base, err
		}},
		{"gist", func() (vecmath.Matrix, error) {
			ds, err := dataset.GISTLike(dataset.Config{N: 2000, Queries: 1, GTK: 1, Seed: 1})
			return ds.Base, err
		}},
		{"uniform", func() (vecmath.Matrix, error) {
			ds, err := dataset.Uniform(dataset.Config{N: 8000, Queries: 1, GTK: 1, Dim: 128, Seed: 1})
			return ds.Base, err
		}},
		{"gaussian", func() (vecmath.Matrix, error) {
			ds, err := dataset.Gaussian(dataset.Config{N: 8000, Queries: 1, GTK: 1, Dim: 128, Seed: 1})
			return ds.Base, err
		}},
		{"islands", func() (vecmath.Matrix, error) { return islandRows(1, 8000, 128), nil }},
	}
	for _, c := range corpora {
		t.Run(c.name, func(t *testing.T) {
			base, err := c.make()
			if err != nil {
				t.Fatal(err)
			}
			knn, err := knngraph.BuildForNSG(base, 20, false, 1)
			if err != nil {
				t.Fatal(err)
			}
			p := BuildParams{L: 50, M: 30, Seed: 1}
			idx, st, err := NSGBuild(knn, base, p)
			if err != nil {
				t.Fatal(err)
			}
			over := 0
			for i := range int32(idx.flat.N()) {
				over += max(0, idx.flat.Degree(i)-p.M)
			}
			if over > st.RepairOverCap {
				t.Errorf("%d edges past M = %d, %d counted", over, p.M, st.RepairOverCap)
			}
			if got := idx.flat.ReachableFrom(idx.Navigating); got != base.Rows {
				t.Errorf("%d of %d nodes reachable", got, base.Rows)
			}
			t.Logf("%d repair edges, %d over the cap, max degree %d", st.TreeRepairEdges, st.RepairOverCap, idx.flat.MaxDegree())
		})
	}
}
