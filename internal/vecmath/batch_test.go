package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

func randomMatrix(rows, dim int, seed int64) Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(rows, dim)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
	}
	return m
}

func TestBatchL2MatchesScalar(t *testing.T) {
	m := randomMatrix(50, 24, 1)
	q := make([]float32, 24)
	for i := range q {
		q[i] = float32(i) * 0.1
	}
	out := make([]float32, 50)
	BatchL2(q, m, out)
	for i := 0; i < 50; i++ {
		if out[i] != L2(q, m.Row(i)) {
			t.Fatalf("row %d: batch %v vs scalar %v", i, out[i], L2(q, m.Row(i)))
		}
	}
}

func TestBatchL2DecompMatchesDirect(t *testing.T) {
	m := randomMatrix(80, 32, 2)
	norms := RowNorms(m)
	q := make([]float32, 32)
	for i := range q {
		q[i] = float32(math.Sin(float64(i)))
	}
	direct := make([]float32, 80)
	decomp := make([]float32, 80)
	BatchL2(q, m, direct)
	BatchL2Decomp(q, m, norms, decomp)
	for i := range direct {
		diff := math.Abs(float64(direct[i]) - float64(decomp[i]))
		if diff > 1e-3*(1+float64(direct[i])) {
			t.Fatalf("row %d: direct %v vs decomposed %v", i, direct[i], decomp[i])
		}
	}
}

func TestBatchL2DecompNonNegative(t *testing.T) {
	// Near-duplicate rows provoke float cancellation; the decomposed kernel
	// must clamp at zero.
	m := NewMatrix(3, 4)
	q := []float32{1e3, 1e3, 1e3, 1e3}
	for i := 0; i < 3; i++ {
		copy(m.Row(i), q)
	}
	norms := RowNorms(m)
	out := make([]float32, 3)
	BatchL2Decomp(q, m, norms, out)
	for i, d := range out {
		if d < 0 {
			t.Fatalf("row %d: negative distance %v", i, d)
		}
	}
}

func TestBatchLengthMismatchPanics(t *testing.T) {
	m := randomMatrix(4, 2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BatchL2(make([]float32, 2), m, make([]float32, 3))
}

func TestL2ToRowsMatchesScalar(t *testing.T) {
	m := randomMatrix(60, 24, 5)
	q := make([]float32, 24)
	for i := range q {
		q[i] = float32(i) * 0.2
	}
	ids := []int32{3, 0, 59, 17, 17, 42}
	out := make([]float32, len(ids))
	L2ToRows(m, q, ids, out)
	for i, id := range ids {
		if out[i] != L2(q, m.Row(int(id))) {
			t.Fatalf("id %d: gather %v vs scalar %v", id, out[i], L2(q, m.Row(int(id))))
		}
	}
	// Empty gather is a no-op.
	L2ToRows(m, q, nil, out)
}

func TestL2ToRowsCounter(t *testing.T) {
	m := randomMatrix(10, 8, 6)
	q := make([]float32, 8)
	ids := []int32{1, 4, 7}
	out := make([]float32, 8)
	var c Counter
	c.L2ToRows(m, q, ids, out)
	if c.Count() != 3 {
		t.Fatalf("counter = %d, want 3", c.Count())
	}
	for i, id := range ids {
		if out[i] != L2(q, m.Row(int(id))) {
			t.Fatalf("id %d: counted gather differs from scalar", id)
		}
	}
	// A nil counter is valid and still computes.
	var nilC *Counter
	nilC.L2ToRows(m, q, ids, out)
	if nilC.Count() != 0 {
		t.Fatal("nil counter must count nothing")
	}
}

func TestL2ToRowsShortOutputPanics(t *testing.T) {
	m := randomMatrix(4, 2, 7)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	L2ToRows(m, make([]float32, 2), []int32{0, 1, 2}, make([]float32, 2))
}

func BenchmarkBatchL2Direct(b *testing.B) {
	m := randomMatrix(1000, 128, 4)
	q := make([]float32, 128)
	out := make([]float32, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BatchL2(q, m, out)
	}
}

func BenchmarkBatchL2Decomp(b *testing.B) {
	m := randomMatrix(1000, 128, 4)
	norms := RowNorms(m)
	q := make([]float32, 128)
	out := make([]float32, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BatchL2Decomp(q, m, norms, out)
	}
}
