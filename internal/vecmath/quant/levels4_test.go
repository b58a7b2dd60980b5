package quant

// The benchmark-only packed int4 leaf kernel (levels4.go): dispatched vs
// scalar bit-identity across every dimension tail, the odd-dimension pad
// nibble, and the int32 headroom.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpu"
)

// pad4 is how far outside [0,15] the int4 query levels these tests draw may
// sit, and maxDim4 the largest dimension at which the worst case
// (15+pad4)² per dimension still fits an int32 sum: the range the retired
// int4 encoder prepared queries into.
const (
	pad4    = 8
	maxDim4 = (1<<31 - 1) / ((15 + pad4) * (15 + pad4))
)

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
			levels[i] = int16(rng.Intn(15+2*pad4+1) - pad4) // full prepared range
		}
		for i := range code {
			code[i] = uint8(rng.Intn(256))
		}
		if dim&1 == 1 {
			code[len(code)-1] &= 0x0f // the pad nibble is written as 0
		}
		want := l2Levels4Generic(levels, code)
		if got := L2Levels4(levels, code); got != want {
			t.Fatalf("dim %d: dispatched kernel %d != generic %d", dim, got, want)
		}
	}
}

// TestOddDimPadNibble: an odd dimension packs into Stride4 = (dim+1)/2
// bytes, so the row ends in a pad nibble the kernel must ignore — the
// dispatched and scalar paths alike, at every tail length the 32-wide body
// leaves — whatever that nibble holds.
func TestOddDimPadNibble(t *testing.T) {
	if Stride4(9) != 5 || Stride4(8) != 4 {
		t.Fatalf("Stride4(9)=%d Stride4(8)=%d, want 5 and 4", Stride4(9), Stride4(8))
	}
	rng := rand.New(rand.NewSource(11))
	for dim := 1; dim <= 99; dim += 2 {
		levels := make([]int16, dim)
		code := make([]uint8, Stride4(dim))
		for i := range levels {
			levels[i] = int16(rng.Intn(15+2*pad4+1) - pad4)
		}
		for i := range code {
			code[i] = uint8(rng.Intn(256))
		}
		last := len(code) - 1
		code[last] &= 0x0f
		want := L2Levels4(levels, code)
		for pad := uint8(1); pad < 16; pad++ {
			code[last] = code[last]&0x0f | pad<<4
			if got := L2Levels4(levels, code); got != want {
				t.Fatalf("dim %d pad %d: dispatched kernel %d, want %d", dim, pad, got, want)
			}
			if got := l2Levels4Generic(levels, code); got != want {
				t.Fatalf("dim %d pad %d: generic kernel %d, want %d", dim, pad, got, want)
			}
		}
	}
}

// TestKernel4WorstCase pins the int32 overflow headroom: the maximum
// per-dimension difference at the maximum supported dimension must not wrap.
func TestKernel4WorstCase(t *testing.T) {
	dim := maxDim4 &^ 1 // even, so the packed row has no pad nibble
	levels := make([]int16, dim)
	code := make([]uint8, Stride4(dim)) // all-zero nibbles
	for i := range levels {
		levels[i] = 15 + pad4
	}
	want := int64(15+pad4) * int64(15+pad4) * int64(dim)
	if full := want / int64(dim) * int64(maxDim4); full > math.MaxInt32 {
		t.Fatalf("maxDim4 %d admits int32 overflow: %d", maxDim4, full)
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
