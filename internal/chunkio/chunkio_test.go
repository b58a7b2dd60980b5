package chunkio

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// TestRoundTrip covers sizes below, at, and across chunk boundaries, and
// checks that the big-endian hosts' chunked encoder writes the bytes this
// host's writer does.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, chunk - 1, chunk, chunk + 1, 3*chunk + 5} {
		fs := make([]float32, n)
		is := make([]int32, n)
		for i := range fs {
			fs[i] = rng.Float32()*2e6 - 1e6
			is[i] = rng.Int31() - 1<<30
		}
		if n > 0 {
			fs[0] = float32(math.NaN()) // bit patterns must survive, not values
			is[0] = -1
		}
		var buf bytes.Buffer
		if err := WriteFloat32s(&buf, fs); err != nil {
			t.Fatal(err)
		}
		if err := WriteInt32s(&buf, is); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != 8*n {
			t.Fatalf("n=%d: encoded %d bytes, want %d", n, buf.Len(), 8*n)
		}
		var enc bytes.Buffer
		if err := encode32(&enc, fs, math.Float32bits); err != nil {
			t.Fatal(err)
		}
		if err := encode32(&enc, is, func(v int32) uint32 { return uint32(v) }); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), buf.Bytes()) {
			t.Fatalf("n=%d: the chunked encoder's bytes differ from the writer's", n)
		}
		gotF := make([]float32, n)
		gotI := make([]int32, n)
		if err := ReadFloat32s(&buf, gotF); err != nil {
			t.Fatal(err)
		}
		if err := ReadInt32s(&buf, gotI); err != nil {
			t.Fatal(err)
		}
		for i := range fs {
			if math.Float32bits(gotF[i]) != math.Float32bits(fs[i]) || gotI[i] != is[i] {
				t.Fatalf("n=%d index %d: round trip changed values", n, i)
			}
		}
	}
}

// TestTruncated: a short stream must error, not return partial data.
func TestTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteInt32s(&buf, []int32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()-2]
	if err := ReadInt32s(bytes.NewReader(short), make([]int32, 3)); err == nil {
		t.Fatal("ReadInt32s accepted a truncated stream")
	}
	if err := ReadFloat32s(bytes.NewReader(nil), make([]float32, 1)); err == nil {
		t.Fatal("ReadFloat32s accepted an empty stream")
	}
}
