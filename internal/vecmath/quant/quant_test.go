package quant

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpu"
	"repro/internal/vecmath"
)

func randMatrix(rows, dim int, seed int64) vecmath.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := vecmath.NewMatrix(rows, dim)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*200 - 100
	}
	return m
}

// TestTrainBounds checks the per-dimension min/max cover every row.
func TestTrainBounds(t *testing.T) {
	m := randMatrix(500, 33, 1)
	q := Train(m)
	for i := 0; i < m.Rows; i++ {
		for d, v := range m.Row(i) {
			if v < q.Min[d] || v > q.Max[d] {
				t.Fatalf("row %d dim %d: value %g outside trained [%g,%g]", i, d, v, q.Min[d], q.Max[d])
			}
		}
	}
	if q.Scale() <= 0 {
		t.Fatalf("non-positive scale %g", q.Scale())
	}
}

// TestEncodeReconstructionError: decoding a code must land within half a
// grid step of the original value in every dimension.
func TestEncodeReconstructionError(t *testing.T) {
	m := randMatrix(300, 48, 2)
	q := Train(m)
	c := q.Encode(m)
	half := q.Scale() / 2 * 1.0001 // float slack on the exact bound
	for i := 0; i < m.Rows; i++ {
		row, code := m.Row(i), c.Row(i)
		for d := range row {
			rec := q.Min[d] + float32(code[d])*q.Scale()
			if diff := float64(rec - row[d]); math.Abs(diff) > float64(half) {
				t.Fatalf("row %d dim %d: reconstruction error %g exceeds scale/2=%g", i, d, diff, half)
			}
		}
	}
}

// TestQuantizedDistanceApproximation: the asymmetric code distance must
// track the exact squared distance within the quantization error bound.
func TestQuantizedDistanceApproximation(t *testing.T) {
	m := randMatrix(400, 64, 3)
	q := Train(m)
	c := q.Encode(m)
	queries := randMatrix(20, 64, 4)
	var levels []int16
	for qi := 0; qi < queries.Rows; qi++ {
		qv := queries.Row(qi)
		levels = q.PrepareInto(levels[:0], qv)
		for i := 0; i < m.Rows; i++ {
			exact := float64(vecmath.L2(qv, m.Row(i)))
			approx := float64(q.L2(levels, c, int32(i)))
			// Per-dimension error is at most one grid step (query and code
			// each round by up to half a step); the cross terms bound the
			// squared-distance error by scale²·dim + 2·scale·√dim·√exact.
			dim := float64(m.Dim)
			s := float64(q.Scale())
			bound := s*s*dim + 2*s*math.Sqrt(dim)*math.Sqrt(exact) + 1e-3
			if math.Abs(exact-approx) > bound {
				t.Fatalf("query %d row %d: |%g - %g| = %g exceeds bound %g",
					qi, i, exact, approx, math.Abs(exact-approx), bound)
			}
		}
	}
}

// TestEncodeExtremeValues: coordinates far outside the trained range (and
// NaN/±Inf) must clamp to the *correct* end of the grid — a naive
// float→int32 conversion overflows to MinInt32 and lands on the wrong end.
func TestEncodeExtremeValues(t *testing.T) {
	m := randMatrix(50, 4, 20) // trained roughly on [-100, 100]
	q := Train(m)
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	cases := []struct {
		v     []float32
		code  []uint8
		level []int16
	}{
		{[]float32{1e30, -1e30, inf, -inf},
			[]uint8{255, 0, 255, 0},
			[]int16{255 + queryPad, -queryPad, 255 + queryPad, -queryPad}},
		{[]float32{nan, nan, -1e30, 1e30}, // NaN → low end, deterministic
			[]uint8{0, 0, 0, 255},
			[]int16{-queryPad, -queryPad, -queryPad, 255 + queryPad}},
	}
	for ci, c := range cases {
		code := make([]uint8, 4)
		q.EncodeInto(code, c.v)
		for d := range code {
			if c.code != nil && code[d] != c.code[d] {
				t.Errorf("case %d dim %d: code %d, want %d", ci, d, code[d], c.code[d])
			}
		}
		levels := q.PrepareInto(nil, c.v)
		for d, lv := range levels {
			if c.level != nil && lv != c.level[d] {
				t.Errorf("case %d dim %d: level %d, want %d", ci, d, lv, c.level[d])
			}
			if lv < -queryPad || lv > 255+queryPad {
				t.Errorf("case %d dim %d: level %d outside [-%d, %d]", ci, d, lv, queryPad, 255+queryPad)
			}
		}
	}
}

// TestKernelParity: the dispatched kernel (AVX2 on amd64) must be
// bit-identical to the portable scalar loop across dimensions, including
// every tail length and out-of-range query levels.
func TestKernelParity(t *testing.T) {
	t.Logf("cpu.AVX2=%v", cpu.AVX2)
	rng := rand.New(rand.NewSource(7))
	for dim := 1; dim <= 200; dim++ {
		levels := make([]int16, dim)
		code := make([]uint8, dim)
		for i := range levels {
			levels[i] = int16(rng.Intn(255+2*queryPad+1) - queryPad) // full prepared range
			code[i] = uint8(rng.Intn(256))
		}
		want := l2LevelsGeneric(levels, code)
		if got := L2Levels(levels, code); got != want {
			t.Fatalf("dim %d: dispatched kernel %d != generic %d", dim, got, want)
		}
	}
}

// TestKernelWorstCase pins the int32 overflow headroom: the maximum
// per-dimension difference at the maximum supported dimension must not wrap.
func TestKernelWorstCase(t *testing.T) {
	dim := MaxDim
	levels := make([]int16, dim)
	code := make([]uint8, dim)
	for i := range levels {
		levels[i] = 255 + queryPad
		code[i] = 0
	}
	want := int64(255+queryPad) * int64(255+queryPad) * int64(dim)
	if want > math.MaxInt32 {
		t.Fatalf("MaxDim %d admits int32 overflow: %d", dim, want)
	}
	if got := L2Levels(levels, code); int64(got) != want {
		t.Fatalf("worst case sum %d != %d", got, want)
	}
	if cpu.AVX2 {
		if got := l2LevelsGeneric(levels, code); int64(got) != want {
			t.Fatalf("generic worst case sum %d != %d", got, want)
		}
	}
}

// TestL2ToRows: the batched gather must match per-row kernel calls, and the
// counter twin must count one evaluation per row.
func TestL2ToRows(t *testing.T) {
	m := randMatrix(200, 31, 5)
	q := Train(m)
	c := q.Encode(m)
	levels := q.PrepareInto(nil, randMatrix(1, 31, 6).Row(0))
	ids := []int32{3, 17, 0, 199, 42, 42}
	out := make([]float32, len(ids))
	var counter vecmath.Counter
	q.L2ToRowsCount(&counter, c, levels, ids, out)
	for i, id := range ids {
		if want := q.L2(levels, c, id); out[i] != want {
			t.Fatalf("row %d: gather %g != direct %g", id, out[i], want)
		}
	}
	if counter.Count() != uint64(len(ids)) {
		t.Fatalf("counter recorded %d evaluations, want %d", counter.Count(), len(ids))
	}
	var nilCounter *vecmath.Counter
	q.L2ToRowsCount(nilCounter, c, levels, ids, out) // must not panic
}

// TestAppendEncoded grows the code matrix one row at a time.
func TestAppendEncoded(t *testing.T) {
	m := randMatrix(10, 16, 8)
	q := Train(m)
	c := q.Encode(vecmath.Matrix{Data: m.Data[:5*16], Rows: 5, Dim: 16})
	for i := 5; i < 10; i++ {
		q.AppendEncoded(&c, m.Row(i))
	}
	full := q.Encode(m)
	if !bytes.Equal(c.Codes, full.Codes) || c.Rows != full.Rows {
		t.Fatal("incrementally appended codes differ from batch encode")
	}
}

// TestDegenerateTraining: a constant dataset must train, encode to zeros,
// and report zero distances for the matching query.
func TestDegenerateTraining(t *testing.T) {
	m := vecmath.NewMatrix(10, 8)
	for i := range m.Data {
		m.Data[i] = 3.5
	}
	q := Train(m)
	c := q.Encode(m)
	for _, b := range c.Codes {
		if b != 0 {
			t.Fatalf("constant data encoded to nonzero code %d", b)
		}
	}
	levels := q.PrepareInto(nil, m.Row(0))
	if d := q.L2(levels, c, 0); d != 0 {
		t.Fatalf("self distance %g != 0 on constant data", d)
	}
}
