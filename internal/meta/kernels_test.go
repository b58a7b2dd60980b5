package meta

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The dispatched Eq and Range passes (AVX2 assembly on amd64) against the
// scalar loops that define the bits, and both against the per-row
// definition. Under NSG_NO_AVX2=1 (and off amd64) the dispatch is the scalar
// loop and the first comparison holds trivially.

// checkKernels runs the Eq pass over vals (as int64s and truncated to int32
// enum codes) and the Range pass over vals, into bitmaps whose every bit
// starts set. It fails t unless each word equals the scalar loop's, each
// row's bit says what the predicate says, and no bit past the last row is
// set.
func checkKernels(t *testing.T, vals []int64, x, lo, hi int64) {
	t.Helper()
	rows := len(vals)
	codes := make([]int32, rows)
	for i, v := range vals {
		codes[i] = int32(v)
	}
	got := make([]uint64, BitsLen(rows))
	want := make([]uint64, len(got))
	run := func(name string, pass, scalar func(dst []uint64), match func(i int) bool) {
		for i := range got {
			got[i], want[i] = ^uint64(0), ^uint64(0)
		}
		pass(got)
		scalar(want)
		for w := range got {
			if got[w] != want[w] {
				t.Fatalf("%s over %d rows: word %d = %#016x, scalar = %#016x", name, rows, w, got[w], want[w])
			}
		}
		for i := 0; i < len(got)*64; i++ {
			if have := got[i>>6]>>uint(i&63)&1 == 1; have != (i < rows && match(i)) {
				t.Fatalf("%s over %d rows: row %d bit = %v", name, rows, i, have)
			}
		}
	}
	x32 := int32(x)
	run("Eq int32", func(dst []uint64) { eqBits(dst, codes, x32) },
		func(dst []uint64) { eqBitsGeneric(dst, codes, x32) },
		func(i int) bool { return codes[i] == x32 })
	run("Eq int64", func(dst []uint64) { rangeBits(dst, vals, x, x) },
		func(dst []uint64) { eqBitsGeneric(dst, vals, x) },
		func(i int) bool { return vals[i] == x })
	run("Range", func(dst []uint64) { rangeBits(dst, vals, lo, hi) },
		func(dst []uint64) {
			if clear(dst); lo <= hi {
				rangeBitsGeneric(dst, vals, lo, hi)
			}
		},
		func(i int) bool { return lo <= vals[i] && vals[i] <= hi })
}

// kernelColumn derives rows values from data, one byte a row (cycling):
// its low three bits pick the Eq operand, a neighbour of x, lo or hi, an
// int64 extreme or raw bytes of data, so matches, near misses and the
// values that trip a wrong signed/unsigned compare all turn up whatever the
// operands.
func kernelColumn(rows int, data []byte, x, lo, hi int64) []int64 {
	if len(data) == 0 {
		data = []byte{0}
	}
	raw := append(append([]byte(nil), data...), make([]byte, 8)...)
	vals := make([]int64, rows)
	for i := range vals {
		b := data[i%len(data)]
		d := int64(b>>3&3) - 1 // -1, 0, 1 or 2
		switch b & 7 {
		case 0:
			vals[i] = x
		case 1:
			vals[i] = x + d
		case 2:
			vals[i] = lo + d
		case 3:
			vals[i] = hi + d
		case 4:
			vals[i] = math.MinInt64 + int64(b>>5)
		case 5:
			vals[i] = math.MaxInt64 - int64(b>>5)
		default:
			vals[i] = int64(binary.LittleEndian.Uint64(raw[i%len(data):]))
		}
	}
	return vals
}

// TestCompileKernelsMatchScalar covers every row count from 0 to 300 (every
// tail length, and one to four whole words) with random bytes, against
// operand sets that include the int64 and int32 extremes, an empty range
// and the whole line.
func TestCompileKernelsMatchScalar(t *testing.T) {
	ops := []struct{ x, lo, hi int64 }{
		{3, 1, 5},
		{0, 0, 0},
		{-1, -5, -1},
		{math.MaxInt64, math.MinInt64, math.MaxInt64},
		{math.MinInt64, math.MinInt64, -1},
		{math.MaxInt32, 0, math.MaxInt64},
		{math.MinInt32, math.MaxInt64, math.MaxInt64},
		{7, 9, 2}, // lo > hi
		{1 << 40, -(1 << 62), 1 << 62},
	}
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 97)
	for rows := 0; rows <= 300; rows++ {
		rng.Read(data)
		for _, op := range ops {
			checkKernels(t, kernelColumn(rows, data, op.x, op.lo, op.hi), op.x, op.lo, op.hi)
		}
	}
}

// FuzzCompileKernels lets the fuzzer choose the row count (0-300), the
// column values (through kernelColumn), the Eq operand and the Range bounds.
func FuzzCompileKernels(f *testing.F) {
	f.Add(uint16(200), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 17, 26, 255}, int64(5), int64(-3), int64(9))
	f.Add(uint16(300), []byte{4, 5, 0x24, 0xe5}, int64(math.MinInt64), int64(math.MinInt64), int64(math.MaxInt64))
	f.Add(uint16(64), []byte{2, 3, 10, 11, 18, 19}, int64(-1), int64(math.MaxInt64-1), int64(math.MinInt64+1))
	f.Add(uint16(129), []byte{6, 7, 0x80, 0x7f}, int64(math.MaxInt32), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, rows uint16, data []byte, x, lo, hi int64) {
		checkKernels(t, kernelColumn(int(rows)%301, data, x, lo, hi), x, lo, hi)
	})
}
