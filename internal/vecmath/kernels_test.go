package vecmath

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpu"
)

// The dispatched kernels (AVX2 assembly on amd64) against l2Generic, the
// scalar loop that defines the bits. Equality is on math.Float32bits (see
// sameBits), so a reordered sum, a fused multiply-add or a mishandled tail
// fails even where it would round to the same decimal. Under NSG_NO_AVX2
// (and off amd64) the dispatch is the scalar loop and these hold trivially;
// the kernel-matrix CI lane runs both.

// fillKinds are the input classes of the bit-identity tests: each writes one
// vector. The non-finite classes matter because Inf-Inf and 0*Inf make NaNs
// inside the kernel, and the denormal one because a kernel that ran with
// flush-to-zero set would differ there.
var fillKinds = []struct {
	name string
	fill func(rng *rand.Rand, v []float32)
}{
	{"uniform", func(rng *rand.Rand, v []float32) {
		for i := range v {
			v[i] = rng.Float32()*2 - 1
		}
	}},
	{"bytes", func(rng *rand.Rand, v []float32) { // the benchmark's corpus: integers in [0,255]
		for i := range v {
			v[i] = float32(rng.Intn(256))
		}
	}},
	{"exponents", func(rng *rand.Rand, v []float32) { // every scale at once, so sums round differently in every order
		for i := range v {
			v[i] = float32(math.Ldexp(rng.Float64()*2-1, rng.Intn(60)-30))
		}
	}},
	{"large", func(rng *rand.Rand, v []float32) { // squares overflow to +Inf
		for i := range v {
			v[i] = (rng.Float32()*2 - 1) * 3e38
		}
	}},
	{"denormal", func(rng *rand.Rand, v []float32) {
		for i := range v {
			v[i] = math.Float32frombits(uint32(rng.Intn(1<<23)) | uint32(rng.Intn(2))<<31)
		}
	}},
	{"inf", func(rng *rand.Rand, v []float32) {
		for i := range v {
			switch rng.Intn(6) {
			case 0:
				v[i] = float32(math.Inf(1))
			case 1:
				v[i] = float32(math.Inf(-1))
			default:
				v[i] = rng.Float32()
			}
		}
	}},
	{"nan", func(rng *rand.Rand, v []float32) {
		for i := range v {
			if rng.Intn(5) == 0 {
				v[i] = float32(math.NaN())
			} else {
				v[i] = rng.Float32()
			}
		}
	}},
}

// sameBits reports whether two distances are the same float32, bit for bit,
// with one allowance: two NaNs are the same whatever their payloads. Which
// operand's payload an add of two NaNs keeps depends on operand order, the
// Go spec does not fix that, and the compiler's own code for l2Generic
// orders lane 7 differently from lanes 0-6 — so payloads are not a property
// even the scalar loop has from one toolchain to the next.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

func TestL2AVX2BitIdentical(t *testing.T) {
	t.Logf("cpu.AVX2=%v", cpu.AVX2)
	rng := rand.New(rand.NewSource(41))
	// One backing array for both operands, sliced at every offset mod 8
	// floats, so the 32-byte loads see every alignment.
	buf := make([]float32, 2*(300+8))
	for dim := 1; dim <= 300; dim++ {
		for _, kind := range fillKinds {
			for trial := 0; trial < 4; trial++ {
				offA, offB := rng.Intn(8), rng.Intn(8)
				a := buf[offA : offA+dim : offA+dim]
				b := buf[308+offB : 308+offB+dim : 308+offB+dim]
				kind.fill(rng, a)
				kind.fill(rng, b)
				got, want := L2(a, b), l2Generic(a, b)
				if !sameBits(got, want) {
					t.Fatalf("dim %d %s offsets %d,%d: L2 = %g (%#08x), scalar = %g (%#08x)", dim, kind.name,
						offA, offB, got, math.Float32bits(got), want, math.Float32bits(want))
				}
			}
		}
	}
}

// checkRows compares one L2ToRows call against l2Generic row by row.
func checkRows(t *testing.T, base Matrix, query []float32, ids []int32, what string) {
	t.Helper()
	out := make([]float32, len(ids)+1)
	const sentinel = -12345
	out[len(ids)] = sentinel
	L2ToRows(base, query, ids, out)
	for i, id := range ids {
		want := l2Generic(query, base.Row(int(id)))
		if !sameBits(out[i], want) {
			t.Fatalf("%s: ids[%d] = %d: gather = %g (%#08x), scalar = %g (%#08x)", what, i, id,
				out[i], math.Float32bits(out[i]), want, math.Float32bits(want))
		}
	}
	if out[len(ids)] != sentinel {
		t.Fatalf("%s: L2ToRows wrote past out[:len(ids)]", what)
	}
}

func TestL2ToRowsAVX2BitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dim := range []int{1, 3, 7, 8, 16, 64, 96, 100, 128, 136, 960} {
		const rows = 97
		// The matrix starts one float into its allocation, so rows are
		// never 32-byte aligned, and ends where the allocation does, so a
		// kernel that read past the last row would leave the slice.
		backing := make([]float32, 1+rows*dim)
		base := Matrix{Data: backing[1:], Rows: rows, Dim: dim}
		query := make([]float32, dim+1)[1:]
		for _, kind := range fillKinds {
			kind.fill(rng, base.Data)
			kind.fill(rng, query)
			for n := 1; n <= 64; n++ {
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
				checkRows(t, base, query, ids, fmt.Sprintf("dim %d %s n %d", dim, kind.name, n))
			}
		}
		// A list far longer than the prefetch window, as the exact scan of
		// a filter passes.
		ids := make([]int32, 2000)
		for i := range ids {
			ids[i] = int32(rng.Intn(rows))
		}
		ids[0], ids[1999] = rows-1, 0
		checkRows(t, base, query, ids, fmt.Sprintf("dim %d n 2000", dim))
	}
}

// TestL2ToRowsRejectsForeignRows: the assembly takes raw pointers, so an id
// outside the matrix (or a matrix that claims more rows than it has) must
// panic in the wrapper instead of reading whatever lies beside base.Data,
// and the scalar loop refuses the same calls.
func TestL2ToRowsRejectsForeignRows(t *testing.T) {
	base := randomMatrix(10, 16, 43)
	query := make([]float32, 16)
	out := make([]float32, 4)
	short := Matrix{Data: base.Data[:9*16], Rows: 10, Dim: 16} // the tenth row is there, beyond len(Data)
	cases := []struct {
		name  string
		base  Matrix
		query []float32
		ids   []int32
	}{
		{"id == Rows", base, query, []int32{0, 10}},
		{"id past Rows", base, query, []int32{1, 2, 1 << 30}},
		{"negative id", base, query, []int32{3, -1}},
		{"most negative id", base, query, []int32{math.MinInt32}},
		{"Rows beyond Data", short, query, []int32{9}},
		{"negative Rows", Matrix{Data: base.Data, Rows: -1, Dim: 16}, query, []int32{0}},
		{"short query", base, query[:15], []int32{0}},
		{"long query", base, make([]float32, 17), []int32{0}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a panic", c.name)
				}
			}()
			L2ToRows(c.base, c.query, c.ids, out)
		}()
	}
}

// FuzzL2Kernels feeds both kernels arbitrary bit patterns (signalling NaNs,
// both zeros, denormals), dimensions and id lists, and requires the scalar
// loop's bits.
func FuzzL2Kernels(f *testing.F) {
	seed := make([]byte, 4*8*40)
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < len(seed); i += 4 {
		binary.LittleEndian.PutUint32(seed[i:], math.Float32bits(rng.Float32()*2-1))
	}
	f.Add(seed, uint16(8), []byte{0, 1, 2, 3})
	f.Add(seed, uint16(13), []byte{7, 7, 0})
	f.Add(seed[:4*41], uint16(20), []byte{0})
	f.Add([]byte{0, 0, 0x80, 0x7f, 0, 0, 0x80, 0x7f, 0, 0, 0xc0, 0x7f, 1, 0, 0, 0}, uint16(1), []byte{0, 1, 2})
	f.Fuzz(func(t *testing.T, raw []byte, dim16 uint16, picks []byte) {
		dim := 1 + int(dim16)%300
		vals := make([]float32, len(raw)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		if len(vals) < 2*dim {
			return
		}
		query := vals[:dim:dim]
		rows := (len(vals) - dim) / dim
		base := Matrix{Data: vals[dim : dim+rows*dim], Rows: rows, Dim: dim}
		if got, want := L2(query, base.Row(0)), l2Generic(query, base.Row(0)); !sameBits(got, want) {
			t.Fatalf("dim %d: L2 = %#08x, scalar = %#08x", dim, math.Float32bits(got), math.Float32bits(want))
		}
		ids := make([]int32, len(picks))
		for i, p := range picks {
			ids[i] = int32(int(p) % rows)
		}
		out := make([]float32, len(ids))
		L2ToRows(base, query, ids, out)
		for i, id := range ids {
			if want := l2Generic(query, base.Row(int(id))); !sameBits(out[i], want) {
				t.Fatalf("dim %d id %d: gather = %#08x, scalar = %#08x", dim, id, math.Float32bits(out[i]), math.Float32bits(want))
			}
		}
	})
}

// The two benchmarks below read random rows of a 30 000 x 128 matrix (15 MB,
// several times the L2), so a gather misses the cache the way a traversal's
// does. "dispatch" is what callers get (AVX2 unless NSG_NO_AVX2 or the CPU
// says otherwise); "scalar" is l2Generic whatever the CPU, so one run shows
// both kernels side by side.

func gatherBenchInputs() (base Matrix, query []float32, ids []int32) {
	base = randomMatrix(30000, 128, 45)
	query = randomMatrix(1, 128, 46).Row(0)
	rng := rand.New(rand.NewSource(47))
	ids = make([]int32, 1<<16)
	for i := range ids {
		ids[i] = int32(rng.Intn(base.Rows))
	}
	return base, query, ids
}

// BenchmarkL2Gather: one L2 call per random row, the shape of the
// benchmark's vecmath.l2_ns_per_eval.
func BenchmarkL2Gather(b *testing.B) {
	base, query, ids := gatherBenchInputs()
	for _, k := range []struct {
		name string
		l2   func(a, b []float32) float32
	}{{"dispatch", L2}, {"scalar", l2Generic}} {
		b.Run(k.name, func(b *testing.B) {
			var sink float32
			for i := 0; i < b.N; i++ {
				sink += k.l2(query, base.Row(int(ids[i&(len(ids)-1)])))
			}
			benchSink = sink
		})
	}
}

// BenchmarkL2ToRows: one gather per id list, at the length a hop of
// Algorithm 1 stages (16) and the length a filter's exact scan passes (800,
// far beyond the prefetch window), over random rows of the whole matrix;
// and "hot", 16 ids drawn from its first 64 rows (32 KiB, which stay in
// L1), so the kernel's arithmetic shows apart from its misses. ns/op is per
// row.
func BenchmarkL2ToRows(b *testing.B) {
	base, query, ids := gatherBenchInputs()
	hot := make([]int32, len(ids))
	for i, id := range ids {
		hot[i] = id % 64
	}
	scalar := func(base Matrix, query []float32, ids []int32, out []float32) {
		for i, id := range ids {
			out[i] = l2Generic(query, base.Row(int(id)))
		}
	}
	for _, shape := range []struct {
		name string
		n    int
		ids  []int32
	}{{"ids=16", 16, ids}, {"ids=800", 800, ids}, {"hot/ids=16", 16, hot}} {
		for _, k := range []struct {
			name   string
			toRows func(Matrix, []float32, []int32, []float32)
		}{{"dispatch", L2ToRows}, {"scalar", scalar}} {
			b.Run(shape.name+"/"+k.name, func(b *testing.B) {
				n := shape.n
				out := make([]float32, n)
				b.ReportAllocs()
				lists := b.N/n + 1
				b.ResetTimer()
				for i := 0; i < lists; i++ {
					off := (i * n) % (len(shape.ids) - n)
					k.toRows(base, query, shape.ids[off:off+n], out)
				}
				benchSink = out[0]
			})
		}
	}
}

var benchSink float32
