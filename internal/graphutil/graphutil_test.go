package graphutil

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/vecmath"
)

func TestBasicEdges(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("HasEdge wrong")
	}
	if g.Edges() != 2 {
		t.Errorf("Edges = %d, want 2", g.Edges())
	}
	if g.N() != 3 {
		t.Errorf("N = %d, want 3", g.N())
	}
}

func TestDegreeStats(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 0)
	st := g.Degrees()
	if st.Max != 2 || st.Min != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Avg != 1.0 {
		t.Errorf("avg = %v, want 1", st.Avg)
	}
}

func TestIndexBytes(t *testing.T) {
	g := New(10)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	if got := g.IndexBytes(); got != 10*3*4 {
		t.Errorf("IndexBytes = %d, want 120", got)
	}
	if got := g.IndexBytesRagged(); got != 3*4+10*4 {
		t.Errorf("IndexBytesRagged = %d, want 52", got)
	}
}

func TestSCCSingleCycle(t *testing.T) {
	g := New(4)
	for i := int32(0); i < 4; i++ {
		g.AddEdge(i, (i+1)%4)
	}
	if c := g.SCCCount(); c != 1 {
		t.Errorf("cycle SCC = %d, want 1", c)
	}
}

func TestSCCDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(2, 3)
	if c := g.SCCCount(); c != 3 {
		t.Errorf("SCC = %d, want 3 ({0,1},{2},{3})", c)
	}
}

func TestSCCDAGIsAllSingletons(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	if c := g.SCCCount(); c != 5 {
		t.Errorf("DAG SCC = %d, want 5", c)
	}
}

func TestSCCDeepChainNoStackOverflow(t *testing.T) {
	// The iterative Tarjan must handle chains far deeper than the goroutine
	// stack would allow for recursion on huge graphs.
	n := 200000
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(int32(i), int32(i+1))
	}
	if c := g.SCCCount(); c != n {
		t.Errorf("chain SCC = %d, want %d", c, n)
	}
}

// TestSCCMatchesBruteForce compares Tarjan against an O(n^2) reachability
// definition of SCC on random small graphs.
func TestSCCMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(12)
		g := New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.25 {
					g.AddEdge(int32(i), int32(j))
				}
			}
		}
		want := bruteSCC(g)
		if got := g.SCCCount(); got != want {
			t.Fatalf("trial %d: SCC = %d, brute = %d", trial, got, want)
		}
	}
}

func bruteSCC(g *Graph) int {
	n := g.N()
	reach := make([][]bool, n)
	for i := range reach {
		var r Reacher
		r.Reset(n)
		r.Mark(g, int32(i))
		reach[i] = r.visited
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	count := 0
	for i := 0; i < n; i++ {
		if comp[i] != -1 {
			continue
		}
		comp[i] = count
		for j := i + 1; j < n; j++ {
			if reach[i][j] && reach[j][i] {
				comp[j] = count
			}
		}
		count++
	}
	return count
}

func TestReachableAndUnreachable(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if n := g.ReachableFrom(0); n != 3 {
		t.Errorf("ReachableFrom(0) = %d, want 3", n)
	}
	var r Reacher
	r.Reset(g.N())
	r.Mark(g, 0)
	if un := r.AppendUnreached(nil); len(un) != 2 || un[0] != 3 || un[1] != 4 {
		t.Errorf("unreached from 0 = %v, want [3 4]", un)
	}
}

func TestNNPercent(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1) // node 0 links its NN
	g.AddEdge(1, 0) // node 1 links its NN
	g.AddEdge(2, 0) // node 2 does not (its NN is 1)
	nn := []int32{1, 0, 1}
	if p := g.NNPercent(nn); p < 66 || p > 67 {
		t.Errorf("NNPercent = %v, want ~66.7", p)
	}
}

func TestExactNearest(t *testing.T) {
	base := vecmath.MatrixFromSlices([][]float32{{0}, {1}, {10}})
	nn := ExactNearest(base)
	if nn[0] != 1 || nn[1] != 0 || nn[2] != 1 {
		t.Errorf("ExactNearest = %v, want [1 0 1]", nn)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 3)
	g.AddEdge(2, 0)
	f := Flatten(g)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	off, edges := f.Slabs()
	if f.N() != 4 || f.MaxDegree() != 2 || !slices.Equal(off, []int32{0, 2, 2, 3, 3}) || !slices.Equal(edges, []int32{1, 3, 0}) {
		t.Fatalf("N=%d max degree %d offsets %v edges %v", f.N(), f.MaxDegree(), off, edges)
	}
	if f.Degree(0) != 2 || f.Degree(1) != 0 {
		t.Errorf("degrees wrong: %d %d", f.Degree(0), f.Degree(1))
	}
	nb := f.Neighbors(0)
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 3 {
		t.Errorf("Neighbors(0) = %v", nb)
	}
	back := f.ToGraph()
	if back.Edges() != g.Edges() || !back.HasEdge(2, 0) {
		t.Errorf("round trip lost edges")
	}
}

func TestFlattenPropertyRoundTrip(t *testing.T) {
	f := func(edges []struct{ From, To uint8 }) bool {
		g := New(256)
		for _, e := range edges {
			g.AddEdge(int32(e.From), int32(e.To))
		}
		fg := Flatten(g)
		if fg.Validate() != nil || fg.Edges() != g.Edges() || fg.MaxDegree() != g.Degrees().Max {
			return false
		}
		return slices.EqualFunc(fg.ToGraph().Adj, g.Adj, func(a, b []int32) bool { return slices.Equal(a, b) })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFlatGraphValidateCatchesCorruption(t *testing.T) {
	for _, off := range [][]int32{{1, 1, 1, 1}, {0, 2, 1, 1}, {0, 1, 1, 2}, {}} {
		if _, err := FromOffsets(off, []int32{1}); err == nil {
			t.Errorf("offsets %v over a 1-edge slab accepted", off)
		}
	}
	f, err := FromOffsets([]int32{0, 1, 1, 1}, []int32{77}) // edge target out of range
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err == nil {
		t.Error("expected out-of-range edge error")
	}
}
