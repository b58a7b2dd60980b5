package chunkio

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"
)

// FuzzChunkio treats arbitrary bytes as n little-endian scalars: written
// back as int32s or float32s, through the writers' byte view and through
// the big-endian hosts' chunked encoder alike, they must reproduce the
// input bytes exactly (NaN payloads included), so the writers are a
// bijection on 4-byte groups.
func FuzzChunkio(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteFloat32s(&seed, []float32{0, 1, -1, math.Pi, float32(math.Inf(1))}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes(), uint16(5))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{1, 2, 3}, uint16(1))
	f.Add(bytes.Repeat([]byte{0xff}, 64), uint16(16))
	// Cross a chunk boundary: n > 16384 scalars forces a second buffer fill.
	f.Add(bytes.Repeat([]byte{7}, (chunk+2)*4), uint16(chunk+2))

	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		want := min(int(n), len(data)/4)
		ints := make([]int32, want)
		floats := make([]float32, want)
		for i := range ints {
			u := binary.LittleEndian.Uint32(data[4*i:])
			ints[i], floats[i] = int32(u), math.Float32frombits(u)
		}
		for name, write := range map[string]func(io.Writer) error{
			"WriteInt32s":      func(w io.Writer) error { return WriteInt32s(w, ints) },
			"WriteFloat32s":    func(w io.Writer) error { return WriteFloat32s(w, floats) },
			"encode32/int32":   func(w io.Writer) error { return encode32(w, ints, func(v int32) uint32 { return uint32(v) }) },
			"encode32/float32": func(w io.Writer) error { return encode32(w, floats, math.Float32bits) },
		} {
			var out bytes.Buffer
			if err := write(&out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), data[:4*want]) {
				t.Fatalf("%s of %d scalars diverged from the input bytes", name, want)
			}
		}
	})
}
