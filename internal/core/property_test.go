package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/knngraph"
	"repro/internal/vecmath"
)

// TestSelectMRNGPostcondition verifies Definition 5's invariant on random
// inputs: no selected neighbor is occluded by an earlier (closer) selected
// neighbor — for any pair (r earlier, q later), δ(q,r) >= δ(v,q) must hold,
// i.e. vq is not the strict longest edge of triangle vqr.
func TestSelectMRNGPostcondition(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 100; trial++ {
		n := 5 + rng.Intn(60)
		dim := 1 + rng.Intn(8)
		base := vecmath.NewMatrix(n, dim)
		for i := range base.Data {
			base.Data[i] = rng.Float32()
		}
		v := base.Row(0)
		cands := make([]vecmath.Neighbor, 0, n-1)
		for j := 1; j < n; j++ {
			cands = append(cands, vecmath.Neighbor{ID: int32(j), Dist: vecmath.L2(v, base.Row(j))})
		}
		vecmath.SortNeighbors(cands)
		m := 1 + rng.Intn(20)
		selected := SelectMRNG(base, v, cands, m)
		if len(selected) > m {
			t.Fatalf("trial %d: selected %d > cap %d", trial, len(selected), m)
		}
		if len(cands) > 0 && len(selected) == 0 {
			t.Fatalf("trial %d: nothing selected from non-empty candidates", trial)
		}
		if len(selected) > 0 && selected[0] != cands[0].ID {
			t.Fatalf("trial %d: nearest candidate not selected first", trial)
		}
		dist := map[int32]float32{}
		for _, c := range cands {
			dist[c.ID] = c.Dist
		}
		for i := 0; i < len(selected); i++ {
			for j := 0; j < i; j++ {
				r, q := selected[j], selected[i]
				dqr := vecmath.L2(base.Row(int(q)), base.Row(int(r)))
				if dist[r] < dist[q] && dqr < dist[q] {
					t.Fatalf("trial %d: selected %d occluded by earlier %d", trial, q, r)
				}
			}
		}
	}
}

// TestPoolMatchesReferenceOrdering drives the candidate pool with random
// insert sequences and compares it against a sort-based reference, then
// against a slice model of its exact contract under adversarial offers.
func TestPoolMatchesReferenceOrdering(t *testing.T) {
	f := func(dists []float32, capRaw uint8) bool {
		if len(dists) == 0 {
			return true
		}
		capN := int(capRaw)%16 + 1
		p := newPool(capN)
		var ref []vecmath.Neighbor
		for i, d := range dists {
			if d != d || d < 0 { // NaN/negative distances cannot occur in L2
				d = float32(i)
			}
			p.insert(int32(i), d)
			ref = append(ref, vecmath.Neighbor{ID: int32(i), Dist: d})
		}
		vecmath.SortNeighbors(ref)
		if len(ref) > capN {
			ref = ref[:capN]
		}
		if p.len() != len(ref) {
			return false
		}
		for i := range ref {
			if p.neighbor(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}

	// The model: entries sorted by (dist, id) with a checked flag. An offer
	// is rejected when the pool is full and its distance is not strictly
	// below the worst retained one (an equal distance loses whatever its
	// id), or when the same (dist, id) is present, checked or not; otherwise
	// it lands unchecked at its sorted position and the tail is cut to cap.
	// Ids repeat and distances tie on purpose, capacity 1 is common, and
	// both +0 and +Inf are offered.
	type entry struct {
		n       vecmath.Neighbor
		checked bool
	}
	dists := []float32{0, 1, 1, 2, 3, float32(math.Inf(1))}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 2000; trial++ {
		capN := 1 + rng.Intn(5)
		p := newPool(capN)
		var model []entry
		for ops := rng.Intn(30); ops > 0; ops-- {
			if len(model) > 0 && rng.Intn(4) == 0 {
				i := rng.Intn(len(model))
				p.check(i)
				model[i].checked = true
				continue
			}
			nb := vecmath.Neighbor{ID: int32(rng.Intn(6)), Dist: dists[rng.Intn(len(dists))]}
			want, _ := slices.BinarySearchFunc(model, nb, func(e entry, nb vecmath.Neighbor) int {
				return vecmath.CompareNeighbors(e.n, nb)
			})
			switch {
			case len(model) == capN && nb.Dist >= model[capN-1].n.Dist:
				want = -1
			case want < len(model) && model[want].n == nb:
				want = -1
			default:
				model = slices.Insert(model, want, entry{n: nb})
				model = model[:min(len(model), capN)]
			}
			if got := p.insert(nb.ID, nb.Dist); got != want {
				t.Fatalf("trial %d: insert(%d, %v) = %d, want %d", trial, nb.ID, nb.Dist, got, want)
			}
		}
		if p.len() != len(model) {
			t.Fatalf("trial %d: pool holds %d, model %d", trial, p.len(), len(model))
		}
		for i, e := range model {
			if p.neighbor(i) != e.n || math.Float32bits(p.dist(i)) != math.Float32bits(e.n.Dist) || p.checked(i) != e.checked {
				t.Fatalf("trial %d slot %d: (%v, checked=%v), want (%v, checked=%v)", trial, i, p.neighbor(i), p.checked(i), e.n, e.checked)
			}
		}
	}
}

// TestNSGSelfQueryFindsSelf exercises the monotone-reachability property in
// the form a user sees it: querying with a base vector must return that
// vector first, for (nearly) every base point.
func TestNSGSelfQueryFindsSelf(t *testing.T) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 800, Queries: 1, GTK: 1, Dim: 32, Seed: 28})
	if err != nil {
		t.Fatal(err)
	}
	knn, err := knngraph.BuildExact(ds.Base, 25)
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := NSGBuild(knn, ds.Base, BuildParams{L: 40, M: 25, Seed: 28})
	if err != nil {
		t.Fatal(err)
	}
	miss := 0
	for i := 0; i < ds.Base.Rows; i++ {
		res := idx.Search(ds.Base.Row(i), 1, 40, nil)
		if res[0].ID != int32(i) && res[0].Dist > 0 {
			// A different id at distance 0 is an exact duplicate — fine.
			miss++
		}
	}
	if frac := float64(miss) / float64(ds.Base.Rows); frac > 0.02 {
		t.Errorf("self-query missed %d/%d points (%.1f%%), want <= 2%%", miss, ds.Base.Rows, 100*frac)
	}
}

// TestSearchResultsSortedAndUnique checks Algorithm 1's output contract on
// random graphs: ascending distances, no duplicates, ids in range.
func TestSearchResultsSortedAndUnique(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.Intn(100)
		dim := 2 + rng.Intn(6)
		base := vecmath.NewMatrix(n, dim)
		for i := range base.Data {
			base.Data[i] = rng.Float32()
		}
		adj := make([][]int32, n)
		for i := 0; i < n; i++ {
			deg := 1 + rng.Intn(5)
			for d := 0; d < deg; d++ {
				adj[i] = append(adj[i], int32(rng.Intn(n)))
			}
		}
		q := make([]float32, dim)
		for j := range q {
			q[j] = rng.Float32()
		}
		k := 1 + rng.Intn(10)
		res := SearchOnGraph(adj, base, q, []int32{int32(rng.Intn(n))}, k, k+rng.Intn(20), nil, nil)
		seen := map[int32]struct{}{}
		prev := float32(-1)
		for _, nb := range res.Neighbors {
			if nb.ID < 0 || int(nb.ID) >= n {
				t.Fatalf("trial %d: id %d out of range", trial, nb.ID)
			}
			if _, dup := seen[nb.ID]; dup {
				t.Fatalf("trial %d: duplicate id %d", trial, nb.ID)
			}
			seen[nb.ID] = struct{}{}
			if nb.Dist < prev {
				t.Fatalf("trial %d: distances not ascending", trial)
			}
			prev = nb.Dist
			if want := vecmath.L2(q, base.Row(int(nb.ID))); nb.Dist != want {
				t.Fatalf("trial %d: reported distance %v != actual %v", trial, nb.Dist, want)
			}
		}
	}
}
