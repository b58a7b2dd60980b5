package vecmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func naiveL2(a, b []float32) float32 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return float32(s)
}

func TestL2MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dim := range []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 96, 128, 960} {
		a := make([]float32, dim)
		b := make([]float32, dim)
		for i := range a {
			a[i] = rng.Float32()*10 - 5
			b[i] = rng.Float32()*10 - 5
		}
		got := L2(a, b)
		want := naiveL2(a, b)
		if !almostEqual(float64(got), float64(want), 1e-5) {
			t.Errorf("dim %d: L2 = %v, naive = %v", dim, got, want)
		}
	}
}

func TestL2Identity(t *testing.T) {
	a := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if d := L2(a, a); d != 0 {
		t.Errorf("L2(a,a) = %v, want 0", d)
	}
}

func TestL2Symmetric(t *testing.T) {
	f := func(pairs []struct{ A, B float32 }) bool {
		if len(pairs) == 0 {
			return true
		}
		a := make([]float32, len(pairs))
		b := make([]float32, len(pairs))
		for i, p := range pairs {
			// testing/quick can generate NaN/Inf-adjacent extremes; clamp
			// into a realistic coordinate range.
			a[i] = float32(math.Mod(float64(p.A), 1e3))
			b[i] = float32(math.Mod(float64(p.B), 1e3))
		}
		return L2(a, b) == L2(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestL2DimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	L2([]float32{1, 2}, []float32{1})
}

func TestL2TrueTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		dim := 1 + rng.Intn(20)
		a, b, c := make([]float32, dim), make([]float32, dim), make([]float32, dim)
		for i := 0; i < dim; i++ {
			a[i], b[i], c[i] = rng.Float32(), rng.Float32(), rng.Float32()
		}
		// The true (non-squared) distance is the metric; L2 is its square.
		ab := math.Sqrt(float64(L2(a, b)))
		bc := math.Sqrt(float64(L2(b, c)))
		ac := math.Sqrt(float64(L2(a, c)))
		if ac > ab+bc+1e-5 {
			t.Fatalf("triangle inequality violated: %v > %v + %v", ac, ab, bc)
		}
	}
}

func TestDotAndNorm(t *testing.T) {
	a := []float32{3, 4}
	if d := Dot(a, a); d != 25 {
		t.Errorf("Dot = %v, want 25", d)
	}
	if n := Norm(a); n != 5 {
		t.Errorf("Norm = %v, want 5", n)
	}
}

func TestNormalize(t *testing.T) {
	a := []float32{3, 4, 0, 0, 0}
	Normalize(a)
	if !almostEqual(float64(Norm(a)), 1, 1e-6) {
		t.Errorf("normalized norm = %v, want 1", Norm(a))
	}
	z := []float32{0, 0}
	Normalize(z) // must not NaN
	if z[0] != 0 || z[1] != 0 {
		t.Errorf("zero vector changed by Normalize: %v", z)
	}
}

func TestCentroid(t *testing.T) {
	m := MatrixFromSlices([][]float32{{0, 0}, {2, 4}, {4, 8}})
	c := Centroid(m)
	if c[0] != 2 || c[1] != 4 {
		t.Errorf("centroid = %v, want [2 4]", c)
	}
}

func TestMatrixRowSliceClone(t *testing.T) {
	m := NewMatrix(4, 3)
	for i := 0; i < 4; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = float32(i*10 + j)
		}
	}
	if m.Row(2)[1] != 21 {
		t.Errorf("Row(2)[1] = %v, want 21", m.Row(2)[1])
	}
	s := m.Slice(1, 3)
	if s.Rows != 2 || s.Row(0)[0] != 10 {
		t.Errorf("Slice(1,3) wrong: rows=%d first=%v", s.Rows, s.Row(0)[0])
	}
	c := m.Clone()
	c.Row(0)[0] = 999
	if m.Row(0)[0] == 999 {
		t.Error("Clone shares backing array with original")
	}
}

func TestMatrixFromSlicesRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged input")
		}
	}()
	MatrixFromSlices([][]float32{{1, 2}, {1}})
}

func TestCounter(t *testing.T) {
	var c Counter
	a, b := []float32{1, 2}, []float32{3, 4}
	want := L2(a, b)
	for i := 0; i < 5; i++ {
		if got := c.L2(a, b); got != want {
			t.Fatalf("Counter.L2 = %v, want %v", got, want)
		}
	}
	if c.Count() != 5 {
		t.Errorf("Count = %d, want 5", c.Count())
	}
	c.Reset()
	if c.Count() != 0 {
		t.Errorf("Count after Reset = %d, want 0", c.Count())
	}
	var nilc *Counter
	_ = nilc.L2(a, b) // must not panic
	if nilc.Count() != 0 {
		t.Error("nil counter should count 0")
	}
}

func TestTopKBasic(t *testing.T) {
	top := NewTopK(3)
	for i, d := range []float32{5, 1, 4, 2, 3} {
		top.Push(int32(i), d)
	}
	got := top.Result()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	wantIDs := []int32{1, 3, 4}
	for i, n := range got {
		if n.ID != wantIDs[i] {
			t.Errorf("result[%d].ID = %d, want %d", i, n.ID, wantIDs[i])
		}
	}
}

// TestTopKWorst checks that a full collector evicts its worst candidate
// for a closer one and ignores a farther one.
func TestTopKWorst(t *testing.T) {
	top := NewTopK(2)
	top.Push(0, 10)
	top.Push(1, 20)
	top.Push(2, 5)  // evicts id 1 (20)
	top.Push(3, 15) // farther than the worst held (10): ignored
	got := top.Result()
	if len(got) != 2 || got[0] != (Neighbor{ID: 2, Dist: 5}) || got[1] != (Neighbor{ID: 0, Dist: 10}) {
		t.Errorf("Result = %v, want [{2 5} {0 10}]", got)
	}
}

// TestTopKMatchesSort is a property test: TopK must agree with sorting the
// full candidate list.
func TestTopKMatchesSort(t *testing.T) {
	f := func(dists []float32, kRaw uint8) bool {
		if len(dists) == 0 {
			return true
		}
		k := int(kRaw)%len(dists) + 1
		all := make([]Neighbor, len(dists))
		top := NewTopK(k)
		for i, d := range dists {
			if d != d { // NaN would make ordering undefined
				d = 0
			}
			all[i] = Neighbor{ID: int32(i), Dist: d}
			top.Push(int32(i), d)
		}
		SortNeighbors(all)
		got := top.Result()
		if len(got) != k {
			return false
		}
		for i := range got {
			if got[i].Dist != all[i].Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSortNeighborsTieBreak(t *testing.T) {
	ns := []Neighbor{{ID: 5, Dist: 1}, {ID: 2, Dist: 1}, {ID: 9, Dist: 0}}
	SortNeighbors(ns)
	if ns[0].ID != 9 || ns[1].ID != 2 || ns[2].ID != 5 {
		t.Errorf("tie-break order wrong: %+v", ns)
	}
}

func TestMergeNeighborLists(t *testing.T) {
	a := []Neighbor{{ID: 1, Dist: 1}, {ID: 2, Dist: 3}}
	b := []Neighbor{{ID: 1, Dist: 1}, {ID: 3, Dist: 2}}
	got := MergeNeighborLists(2, a, b)
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 3 {
		t.Errorf("merge = %+v, want ids [1 3]", got)
	}
}

func BenchmarkL2Dim128(b *testing.B) { benchL2(b, 128) }
func BenchmarkL2Dim960(b *testing.B) { benchL2(b, 960) }

func benchL2(b *testing.B, dim int) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float32, dim)
	y := make([]float32, dim)
	for i := range x {
		x[i], y[i] = rng.Float32(), rng.Float32()
	}
	b.ResetTimer()
	var sink float32
	for i := 0; i < b.N; i++ {
		sink += L2(x, y)
	}
	_ = sink
}

func TestCounterAddN(t *testing.T) {
	var c Counter
	c.AddN(7)
	c.L2([]float32{1}, []float32{2})
	if c.Count() != 8 {
		t.Errorf("Count = %d, want 8", c.Count())
	}
	var nilc *Counter
	nilc.AddN(5) // must not panic
}
