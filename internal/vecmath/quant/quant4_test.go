package quant

// The int4 twin of quant_test.go: the packed-nibble encoder, the asymmetric
// kernels (dispatched vs scalar bit-identity across every dimension tail),
// the gather twins, extreme-value clamping, degenerate training, and the
// persist round trip.

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpu"
	"repro/internal/vecmath"
)

// TestTrain4Bounds checks the per-dimension min/max cover every row.
func TestTrain4Bounds(t *testing.T) {
	m := randMatrix(500, 33, 1)
	q := Train4(m)
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

// TestEncode4ReconstructionError: decoding a packed code must land within
// half a (16-level) grid step of the original value in every dimension.
func TestEncode4ReconstructionError(t *testing.T) {
	m := randMatrix(300, 48, 2)
	q := Train4(m)
	c := q.Encode(m)
	half := q.Scale() / 2 * 1.0001 // float slack on the exact bound
	for i := 0; i < m.Rows; i++ {
		row, code := m.Row(i), c.Row(i)
		for d := range row {
			nib := code[d>>1]
			if d&1 == 1 {
				nib >>= 4
			}
			rec := q.Min[d] + float32(nib&0x0f)*q.Scale()
			if diff := float64(rec - row[d]); math.Abs(diff) > float64(half) {
				t.Fatalf("row %d dim %d: reconstruction error %g exceeds scale/2=%g", i, d, diff, half)
			}
		}
	}
}

// TestInt4DistanceApproximation: the asymmetric code distance must track the
// exact squared distance within the (coarser) quantization error bound.
func TestInt4DistanceApproximation(t *testing.T) {
	m := randMatrix(400, 64, 3)
	q := Train4(m)
	c := q.Encode(m)
	queries := randMatrix(20, 64, 4)
	var levels []int16
	for qi := 0; qi < queries.Rows; qi++ {
		qv := queries.Row(qi)
		levels = q.PrepareInto(levels[:0], qv)
		for i := 0; i < m.Rows; i++ {
			exact := float64(vecmath.L2(qv, m.Row(i)))
			approx := float64(q.L2(levels, c, int32(i)))
			// Same error algebra as SQ8, with the 16-level step: per-dimension
			// error at most one grid step, cross terms bound the squared
			// distance by scale²·dim + 2·scale·√dim·√exact.
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

// TestEncode4ExtremeValues: coordinates far outside the trained range (and
// NaN/±Inf) must clamp to the *correct* end of the 16-level grid — a naive
// float→int32 conversion overflows to MinInt32 and lands on the wrong end.
func TestEncode4ExtremeValues(t *testing.T) {
	m := randMatrix(50, 4, 20) // trained roughly on [-100, 100]
	q := Train4(m)
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	cases := []struct {
		v     []float32
		nib   []uint8
		level []int16
	}{
		{[]float32{1e30, -1e30, inf, -inf},
			[]uint8{15, 0, 15, 0},
			[]int16{15 + queryPad4, -queryPad4, 15 + queryPad4, -queryPad4}},
		{[]float32{nan, nan, -1e30, 1e30}, // NaN → low end, deterministic
			[]uint8{0, 0, 0, 15},
			[]int16{-queryPad4, -queryPad4, -queryPad4, 15 + queryPad4}},
	}
	for ci, c := range cases {
		code := make([]uint8, Stride4(4))
		q.EncodeInto(code, c.v)
		for d := 0; d < 4; d++ {
			nib := code[d>>1]
			if d&1 == 1 {
				nib >>= 4
			}
			if nib &= 0x0f; nib != c.nib[d] {
				t.Errorf("case %d dim %d: nibble %d, want %d", ci, d, nib, c.nib[d])
			}
		}
		levels := q.PrepareInto(nil, c.v)
		for d, lv := range levels {
			if lv != c.level[d] {
				t.Errorf("case %d dim %d: level %d, want %d", ci, d, lv, c.level[d])
			}
			if lv < -queryPad4 || lv > 15+queryPad4 {
				t.Errorf("case %d dim %d: level %d outside [-%d, %d]", ci, d, lv, queryPad4, 15+queryPad4)
			}
		}
	}
}

// TestKernel4Parity: the dispatched kernel (AVX2 nibble unpack on amd64)
// must be bit-identical to the portable scalar loop across dimensions 1..200
// — every 32-wide body count, every tail length, odd dimensions included —
// with query levels drawn from the full prepared range.
func TestKernel4Parity(t *testing.T) {
	t.Logf("cpu.AVX2=%v", cpu.AVX2)
	rng := rand.New(rand.NewSource(7))
	for dim := 1; dim <= 200; dim++ {
		levels := make([]int16, dim)
		code := make([]uint8, Stride4(dim))
		for i := range levels {
			levels[i] = int16(rng.Intn(15+2*queryPad4+1) - queryPad4) // full prepared range
		}
		for i := range code {
			code[i] = uint8(rng.Intn(256))
		}
		if dim&1 == 1 {
			code[len(code)-1] &= 0x0f // the encoder writes the pad nibble as 0
		}
		want := l2Levels4Generic(levels, code)
		if got := L2Levels4(levels, code); got != want {
			t.Fatalf("dim %d: dispatched kernel %d != generic %d", dim, got, want)
		}
	}
}

// TestKernel4WorstCase pins the int32 overflow headroom: the maximum
// per-dimension difference at the maximum supported dimension must not wrap.
func TestKernel4WorstCase(t *testing.T) {
	dim := MaxDim4 &^ 1 // even, so the packed row has no pad nibble
	levels := make([]int16, dim)
	code := make([]uint8, Stride4(dim)) // all-zero nibbles
	for i := range levels {
		levels[i] = 15 + queryPad4
	}
	want := int64(15+queryPad4) * int64(15+queryPad4) * int64(dim)
	if full := want / int64(dim) * int64(MaxDim4); full > math.MaxInt32 {
		t.Fatalf("MaxDim4 %d admits int32 overflow: %d", MaxDim4, full)
	}
	if got := L2Levels4(levels, code); int64(got) != want {
		t.Fatalf("worst case sum %d != %d", got, want)
	}
	if cpu.AVX2 {
		if got := l2Levels4Generic(levels, code); int64(got) != want {
			t.Fatalf("generic worst case sum %d != %d", got, want)
		}
	}
}

// TestL2ToRows4: the batched gather must match per-row kernel calls, and
// the counter twin must count one evaluation per row.
func TestL2ToRows4(t *testing.T) {
	m := randMatrix(200, 31, 5)
	q := Train4(m)
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

// TestAppendEncoded4 grows the packed code matrix one row at a time.
func TestAppendEncoded4(t *testing.T) {
	m := randMatrix(10, 17, 8) // odd dimension: pad nibble in every row
	q := Train4(m)
	c := q.Encode(vecmath.Matrix{Data: m.Data[:5*17], Rows: 5, Dim: 17})
	for i := 5; i < 10; i++ {
		q.AppendEncoded(&c, m.Row(i))
	}
	full := q.Encode(m)
	if !bytes.Equal(c.Codes, full.Codes) || c.Rows != full.Rows {
		t.Fatal("incrementally appended codes differ from batch encode")
	}
}

// TestOddDimPadNibble: for odd dimensions the final high nibble must encode
// as zero, so rows are byte-reproducible and the slab hashes stably.
func TestOddDimPadNibble(t *testing.T) {
	m := randMatrix(40, 9, 11)
	q := Train4(m)
	c := q.Encode(m)
	if c.Stride != Stride4(9) || c.Stride != 5 {
		t.Fatalf("stride %d, want 5", c.Stride)
	}
	for i := 0; i < c.Rows; i++ {
		row := c.Row(i)
		if row[len(row)-1]>>4 != 0 {
			t.Fatalf("row %d: pad nibble %d != 0", i, row[len(row)-1]>>4)
		}
	}
}

// TestDegenerateTraining4: a constant dataset must train, encode to zeros,
// and report zero distances for the matching query.
func TestDegenerateTraining4(t *testing.T) {
	m := vecmath.NewMatrix(10, 8)
	for i := range m.Data {
		m.Data[i] = 3.5
	}
	q := Train4(m)
	c := q.Encode(m)
	for _, b := range c.Codes {
		if b != 0 {
			t.Fatalf("constant data encoded to nonzero code byte %d", b)
		}
	}
	levels := q.PrepareInto(nil, m.Row(0))
	if d := q.L2(levels, c, 0); d != 0 {
		t.Fatalf("self distance %g != 0 on constant data", d)
	}
}

// TestPersist4RoundTrip: quantizer and packed codes must survive Write/Read
// byte-identically, including the re-derived scale.
func TestPersist4RoundTrip(t *testing.T) {
	m := randMatrix(137, 51, 9) // odd dimension: stride with pad nibble
	q := Train4(m)
	c := q.Encode(m)
	var buf bytes.Buffer
	if err := WriteQuantizer4(&buf, &q); err != nil {
		t.Fatal(err)
	}
	if err := WriteCodes4(&buf, c); err != nil {
		t.Fatal(err)
	}
	q2, err := ReadQuantizer4(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ReadCodes4Shape(&buf, c.Rows, c.Dim)
	if err != nil {
		t.Fatal(err)
	}
	for d := range q.Min {
		if q.Min[d] != q2.Min[d] || q.Max[d] != q2.Max[d] {
			t.Fatalf("dim %d: bounds changed across persist", d)
		}
	}
	if q.Scale() != q2.Scale() || q.DistMul() != q2.DistMul() {
		t.Fatalf("scale changed across persist: %g vs %g", q.Scale(), q2.Scale())
	}
	if !bytes.Equal(c.Codes, c2.Codes) || c.Rows != c2.Rows || c.Dim != c2.Dim || c.Stride != c2.Stride {
		t.Fatal("codes changed across persist")
	}
	if buf.Len() != 0 {
		t.Fatalf("%d unread bytes after round trip", buf.Len())
	}
}

// TestPersist4RejectsGarbage: wrong magics and mismatched shapes must
// error, not misparse — including the SQ8 magics, which must not alias.
func TestPersist4RejectsGarbage(t *testing.T) {
	if _, err := ReadQuantizer4(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Fatal("ReadQuantizer4 accepted zero bytes")
	}
	if _, err := ReadCodes4Shape(bytes.NewReader(make([]byte, 64)), -1, -1); err == nil {
		t.Fatal("ReadCodes4Shape accepted zero bytes")
	}
	m := randMatrix(6, 8, 12)
	q := Train4(m)
	c := q.Encode(m)
	var buf bytes.Buffer
	if err := WriteQuantizer4(&buf, &q); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadQuantizer(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("SQ8 reader accepted an int4 quantizer record")
	}
	buf.Reset()
	if err := WriteCodes4(&buf, c); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCodesShape(bytes.NewReader(buf.Bytes()), -1, -1); err == nil {
		t.Fatal("SQ8 reader accepted an int4 codes record")
	}
	if _, err := ReadCodes4Shape(bytes.NewReader(buf.Bytes()), c.Rows+1, c.Dim); err == nil {
		t.Fatal("ReadCodes4Shape accepted a mismatched row count")
	}
}
