package core

import (
	"testing"

	"repro/internal/vecmath"
)

func TestPoolInsertOrdering(t *testing.T) {
	p := newPool(3)
	p.insert(0, 5)
	p.insert(1, 1)
	p.insert(2, 3)
	want := []int32{1, 2, 0}
	for i := 0; i < p.len(); i++ {
		if p.id(i) != want[i] {
			t.Fatalf("pool order %v at %d, want %v", p.id(i), i, want[i])
		}
	}
	// Full pool: better candidate evicts the worst.
	p.insert(3, 2)
	if p.len() != 3 || p.id(2) != 2 || p.id(1) != 3 {
		t.Errorf("pool after eviction: %x", p.keys)
	}
	// Worse candidate is rejected.
	if pos := p.insert(4, 99); pos != -1 {
		t.Errorf("far candidate accepted at %d", pos)
	}
}

func TestPoolRejectsDuplicates(t *testing.T) {
	p := newPool(5)
	if pos := p.insert(7, 2); pos != 0 {
		t.Fatalf("first insert pos = %d", pos)
	}
	if pos := p.insert(7, 2); pos != -1 {
		t.Errorf("duplicate insert accepted at %d", pos)
	}
	if p.len() != 1 {
		t.Errorf("pool len = %d, want 1", p.len())
	}
}

func TestPoolTieBreakDeterministic(t *testing.T) {
	a := newPool(4)
	a.insert(9, 1)
	a.insert(3, 1)
	a.insert(5, 1)
	ids := []int32{a.id(0), a.id(1), a.id(2)}
	if ids[0] != 3 || ids[1] != 5 || ids[2] != 9 {
		t.Errorf("tie order = %v, want ascending ids [3 5 9]", ids)
	}
}

// lineGraph builds a simple bidirectional chain 0-1-2-...-n-1 over points on
// a line, a minimal graph where greedy search is fully predictable.
func lineGraph(n int) ([][]int32, vecmath.Matrix) {
	adj := make([][]int32, n)
	m := vecmath.NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		m.Row(i)[0] = float32(i)
		if i > 0 {
			adj[i] = append(adj[i], int32(i-1))
		}
		if i < n-1 {
			adj[i] = append(adj[i], int32(i+1))
		}
	}
	return adj, m
}

func TestSearchOnGraphChain(t *testing.T) {
	adj, base := lineGraph(50)
	q := []float32{37.2}
	res := SearchOnGraph(adj, base, q, []int32{0}, 3, 10, nil, nil)
	if res.Neighbors[0].ID != 37 {
		t.Fatalf("nearest = %d, want 37", res.Neighbors[0].ID)
	}
	got := map[int32]bool{}
	for _, n := range res.Neighbors {
		got[n.ID] = true
	}
	if !got[37] || !got[38] || !got[36] {
		t.Errorf("3-NN = %+v, want {36,37,38}", res.Neighbors)
	}
	if res.Hops == 0 {
		t.Error("expected nonzero hops")
	}
}

func TestSearchOnGraphCounter(t *testing.T) {
	adj, base := lineGraph(20)
	var c vecmath.Counter
	SearchOnGraph(adj, base, []float32{19}, []int32{0}, 1, 5, &c, nil)
	// Walking the whole chain must evaluate ~n distances: start + each new
	// neighbor exactly once.
	if c.Count() < 19 || c.Count() > 40 {
		t.Errorf("distance computations = %d, want ≈20", c.Count())
	}
}

func TestSearchOnGraphVisitedCollection(t *testing.T) {
	adj, base := lineGraph(20)
	var visited []vecmath.Neighbor
	SearchOnGraph(adj, base, []float32{10}, []int32{0}, 1, 4, nil, &visited)
	if len(visited) == 0 {
		t.Fatal("visited list empty")
	}
	seen := map[int32]bool{}
	for _, v := range visited {
		if seen[v.ID] {
			t.Fatalf("node %d visited twice", v.ID)
		}
		seen[v.ID] = true
		want := vecmath.L2(base.Row(int(v.ID)), []float32{10})
		if v.Dist != want {
			t.Fatalf("visited dist %v, want %v", v.Dist, want)
		}
	}
	if !seen[0] {
		t.Error("start node missing from visited list")
	}
}

func TestSearchOnGraphMultipleStarts(t *testing.T) {
	adj, base := lineGraph(30)
	res := SearchOnGraph(adj, base, []float32{15}, []int32{0, 29, 29}, 1, 8, nil, nil)
	if res.Neighbors[0].ID != 15 {
		t.Errorf("nearest = %d, want 15", res.Neighbors[0].ID)
	}
}

func TestSearchOnGraphLSmallerThanK(t *testing.T) {
	adj, base := lineGraph(30)
	// l < k must be promoted to l = k, returning k results.
	res := SearchOnGraph(adj, base, []float32{5}, []int32{0}, 10, 2, nil, nil)
	if len(res.Neighbors) != 10 {
		t.Errorf("got %d neighbors, want 10", len(res.Neighbors))
	}
}

func TestSearchOnGraphIsolatedStart(t *testing.T) {
	// A start node with no out-edges: search must terminate and return it.
	adj := [][]int32{nil, nil}
	base := vecmath.MatrixFromSlices([][]float32{{0}, {1}})
	res := SearchOnGraph(adj, base, []float32{0.9}, []int32{0}, 1, 4, nil, nil)
	if len(res.Neighbors) != 1 || res.Neighbors[0].ID != 0 {
		t.Errorf("result = %+v, want just the start node", res.Neighbors)
	}
}

func TestSelectMRNGOcclusion(t *testing.T) {
	// v at origin; a at (1,0); b at (1.5,0.2) is occluded by a (closer to a
	// than to v); c at (0,2) survives (angle > 60° from a).
	base := vecmath.MatrixFromSlices([][]float32{
		{0, 0},     // 0: v
		{1, 0},     // 1: a
		{1.5, 0.2}, // 2: b
		{0, 2},     // 3: c
	})
	v := base.Row(0)
	cands := []vecmath.Neighbor{
		{ID: 1, Dist: vecmath.L2(v, base.Row(1))},
		{ID: 2, Dist: vecmath.L2(v, base.Row(2))},
		{ID: 3, Dist: vecmath.L2(v, base.Row(3))},
	}
	got := SelectMRNG(base, v, cands, 10)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("SelectMRNG = %v, want [1 3]", got)
	}
}

func TestSelectMRNGDegreeCap(t *testing.T) {
	// Points arranged so nothing occludes anything (orthogonal axes);
	// the cap alone limits the degree.
	base := vecmath.MatrixFromSlices([][]float32{
		{0, 0, 0, 0},
		{1, 0, 0, 0},
		{0, 1.1, 0, 0},
		{0, 0, 1.2, 0},
		{0, 0, 0, 1.3},
	})
	v := base.Row(0)
	var cands []vecmath.Neighbor
	for i := 1; i < 5; i++ {
		cands = append(cands, vecmath.Neighbor{ID: int32(i), Dist: vecmath.L2(v, base.Row(i))})
	}
	if got := SelectMRNG(base, v, cands, 2); len(got) != 2 {
		t.Errorf("degree cap ignored: %v", got)
	}
	if got := SelectMRNG(base, v, cands, 10); len(got) != 4 {
		t.Errorf("orthogonal candidates should all survive: %v", got)
	}
}

func TestSelectMRNGAlwaysKeepsNearest(t *testing.T) {
	base := vecmath.MatrixFromSlices([][]float32{{0}, {1}, {2}})
	v := base.Row(0)
	cands := []vecmath.Neighbor{
		{ID: 1, Dist: 1},
		{ID: 2, Dist: 4},
	}
	got := SelectMRNG(base, v, cands, 5)
	if len(got) == 0 || got[0] != 1 {
		t.Errorf("nearest neighbor must always be selected first: %v", got)
	}
}

func TestNearPowerOfTwo(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 8: 8, 9: 16, 100: 128}
	for in, want := range cases {
		if got := NearPowerOfTwo(in); got != want {
			t.Errorf("NearPowerOfTwo(%d) = %d, want %d", in, got, want)
		}
	}
}
