package quant

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpu"
)

// The whole-list gather (one assembly call per id list on amd64 with AVX2)
// against the per-row kernel L2Levels, which defines the bits. Under
// NSG_NO_AVX2 (and off amd64) both sides run the scalar loops; the
// kernel-matrix CI lane runs both dispatches.

// gatherCase is one code matrix with its gather and per-row reference.
type gatherCase struct {
	gather func(levels []int16, ids []int32, out []float32)
	row    func(levels []int16, id int32) float32 // the per-row reference
}

// newGatherCase builds an SQ8 matrix of rows rows at dimension dim over
// codes drawn at random. The matrix starts one byte into its allocation and
// ends where the allocation does, so a kernel that read past the last row
// would leave the slice.
func newGatherCase(rng *rand.Rand, rows, dim int) gatherCase {
	q := Quantizer{distMul: 0.37}
	c := CodeMatrix{Codes: randomBytes(rng, rows*dim), Rows: rows, Dim: dim}
	return gatherCase{
		gather: func(levels []int16, ids []int32, out []float32) { q.L2ToRows(c, levels, ids, out) },
		row: func(levels []int16, id int32) float32 {
			return float32(L2Levels(levels, c.Row(int(id)))) * q.distMul
		},
	}
}

// randomBytes returns n random bytes as the tail of an n+1 byte allocation.
func randomBytes(rng *rand.Rand, n int) []uint8 {
	b := make([]uint8, n+1)[1:]
	rng.Read(b)
	return b
}

// randomLevels returns a prepared query over the full clamped level range
// [-queryPad, 255+queryPad].
func randomLevels(rng *rand.Rand, dim int) []int16 {
	levels := make([]int16, dim+1)[1:]
	for i := range levels {
		levels[i] = int16(rng.Intn(255+2*queryPad+1) - queryPad)
	}
	return levels
}

// checkGather compares one gather call against the per-row kernel, and
// checks nothing is written past out[:len(ids)].
func checkGather(t *testing.T, g gatherCase, levels []int16, ids []int32, what string) {
	t.Helper()
	out := make([]float32, len(ids)+1)
	const sentinel = -12345
	out[len(ids)] = sentinel
	g.gather(levels, ids, out)
	for i, id := range ids {
		if want := g.row(levels, id); math.Float32bits(out[i]) != math.Float32bits(want) {
			t.Fatalf("%s: ids[%d] = %d: gather = %g (%#08x), per row = %g (%#08x)", what, i, id,
				out[i], math.Float32bits(out[i]), want, math.Float32bits(want))
		}
	}
	if out[len(ids)] != sentinel {
		t.Fatalf("%s: L2ToRows wrote past out[:len(ids)]", what)
	}
}

// TestQuantL2ToRowsBitIdentical: every dimension 1..200 (so every tail
// length of the 16- and 64-dimension blocks), lists of 0, 1, 17 and 800
// ids (800 is far beyond the prefetch window), repeated ids and the first
// and last row.
func TestQuantL2ToRowsBitIdentical(t *testing.T) {
	t.Logf("cpu.AVX2=%v", cpu.AVX2)
	rng := rand.New(rand.NewSource(51))
	const rows = 61
	for dim := 1; dim <= 200; dim++ {
		g := newGatherCase(rng, rows, dim)
		levels := randomLevels(rng, dim)
		for _, n := range []int{0, 1, 17, 800} {
			ids := make([]int32, n)
			for i := range ids {
				switch rng.Intn(8) {
				case 0:
					ids[i] = 0
				case 1:
					ids[i] = rows - 1
				case 2:
					if i > 0 {
						ids[i] = ids[i-1] // repeated id
					}
				default:
					ids[i] = int32(rng.Intn(rows))
				}
			}
			if n > 1 {
				ids[0], ids[n-1] = rows-1, 0
			}
			checkGather(t, g, levels, ids, fmt.Sprintf("dim %d n %d", dim, n))
		}
	}
}

// TestQuantL2ToRowsExtremeLevels: the sums at the ends of the level range,
// where a kernel that wrapped a 16-bit difference or saturated a lane would
// differ from the scalar loop.
func TestQuantL2ToRowsExtremeLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, dim := range []int{15, 16, 31, 32, 33, 128, 200} {
		g := newGatherCase(rng, 8, dim)
		ids := []int32{0, 1, 2, 3, 4, 5, 6, 7}
		for _, lv := range []int16{-queryPad, 255 + queryPad} {
			levels := make([]int16, dim)
			for i := range levels {
				levels[i] = lv
			}
			checkGather(t, g, levels, ids, fmt.Sprintf("dim %d level %d", dim, lv))
		}
	}
}

// TestQuantL2ToRowsRejectsForeignRows: the assembly takes raw pointers, so
// an id outside the matrix (or a matrix that claims more rows than its slab
// holds, or levels of another dimension) must panic in the wrapper before
// any row is read — out stays untouched even when the bad id is the last
// one — and the scalar loop refuses the same calls.
func TestQuantL2ToRowsRejectsForeignRows(t *testing.T) {
	const rows, dim = 10, 33
	rng := rand.New(rand.NewSource(53))
	q := Quantizer{distMul: 1}
	codes := randomBytes(rng, rows*dim)
	levels := randomLevels(rng, dim)
	gather := func(r int, short bool, levels []int16, ids []int32, out []float32) {
		c := CodeMatrix{Codes: codes, Rows: r, Dim: dim}
		if short {
			c.Codes = codes[:(rows-1)*dim]
		}
		q.L2ToRows(c, levels, ids, out)
	}
	cases := []struct {
		name   string
		rows   int
		short  bool // the last row is claimed but lies beyond the slab
		levels []int16
		ids    []int32
	}{
		{"id == Rows", rows, false, levels, []int32{0, 1, rows}},
		{"id past Rows", rows, false, levels, []int32{1, 2, 1 << 30}},
		{"negative id", rows, false, levels, []int32{3, -1}},
		{"most negative id", rows, false, levels, []int32{0, math.MinInt32}},
		{"Rows beyond the slab", rows, true, levels, []int32{0, rows - 1}},
		{"negative Rows", -1, false, levels, []int32{0}},
		{"short levels", rows, false, levels[:dim-1], []int32{0}},
		{"long levels", rows, false, make([]int16, dim+1), []int32{0}},
	}
	for _, c := range cases {
		out := []float32{-1, -1, -1}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a panic", c.name)
				}
			}()
			gather(c.rows, c.short, c.levels, c.ids, out)
		}()
		for i, v := range out {
			if v != -1 {
				t.Errorf("%s: out[%d] written (%g) before the ids were checked", c.name, i, v)
			}
		}
	}
}

// FuzzQuantGather feeds the gather arbitrary code bytes, dimensions, query
// levels across the clamped range and id lists, and requires the per-row
// kernel's bits.
func FuzzQuantGather(f *testing.F) {
	seed := make([]byte, 8*40)
	rand.New(rand.NewSource(54)).Read(seed)
	f.Add(seed, uint16(16), []byte{0, 1, 2, 3})
	f.Add(seed, uint16(33), []byte{5, 5, 0})
	f.Add(seed[:70], uint16(20), []byte{0})
	f.Add(seed, uint16(127), []byte{1, 0, 1})
	f.Fuzz(func(t *testing.T, raw []byte, dim16 uint16, picks []byte) {
		dim := 1 + int(dim16)%200
		if len(raw) < 3*dim {
			return
		}
		levels := make([]int16, dim)
		for i := range levels {
			v := int(binary.LittleEndian.Uint16(raw[2*i:]))
			levels[i] = int16(v%(256+2*queryPad) - queryPad)
		}
		codes := raw[2*dim:]
		c := CodeMatrix{Codes: codes, Rows: len(codes) / dim, Dim: dim}
		q := Quantizer{distMul: 0.5}
		ids := make([]int32, len(picks))
		for i, p := range picks {
			ids[i] = int32(int(p) % c.Rows)
		}
		out := make([]float32, len(picks))
		q.L2ToRows(c, levels, ids, out)
		for i, id := range ids {
			if want := float32(l2LevelsGeneric(levels, c.Row(int(id)))) * q.distMul; math.Float32bits(out[i]) != math.Float32bits(want) {
				t.Fatalf("dim %d id %d: gather = %#08x, scalar = %#08x", dim, id, math.Float32bits(out[i]), math.Float32bits(want))
			}
		}
	})
}
