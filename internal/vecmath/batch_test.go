package vecmath

import (
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
