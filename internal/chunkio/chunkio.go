// Package chunkio is the little-endian scalar writer the mapped record and
// container share: float32 matrices, int32 id maps (shard partitions,
// remap tables, CSR offsets and edges) and quantizer bounds. A
// little-endian host writes each slab as one byte view of its memory; a
// big-endian one encodes through a reused 64 KiB buffer, so writing a
// million values costs a handful of buffer-boundary crossings instead of
// one Write per scalar. Readers map the bytes in place (mstore), so there
// is no decoder here.
package chunkio

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"

	"repro/internal/mstore"
)

// chunk is the number of 4-byte scalars encoded per I/O operation (64 KiB).
const chunk = 16384

// write32 writes vals little-endian. On a little-endian host the values'
// memory already is their encoding, so it goes out as one Write of a byte
// view; a big-endian host encodes it with encode32.
func write32[T int32 | float32](w io.Writer, vals []T, bits func(T) uint32) error {
	if !mstore.HostLittleEndian() {
		return encode32(w, vals, bits)
	}
	if _, err := w.Write(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 4*len(vals))); err != nil {
		return fmt.Errorf("chunkio: write: %w", err)
	}
	return nil
}

// encode32 encodes vals through one reused chunk buffer.
func encode32[T int32 | float32](w io.Writer, vals []T, bits func(T) uint32) error {
	buf := make([]byte, chunk*4)
	for off := 0; off < len(vals); off += chunk {
		end := min(off+chunk, len(vals))
		n := 0
		for _, v := range vals[off:end] {
			binary.LittleEndian.PutUint32(buf[n:], bits(v))
			n += 4
		}
		if _, err := w.Write(buf[:n]); err != nil {
			return fmt.Errorf("chunkio: write: %w", err)
		}
	}
	return nil
}

// WriteFloat32s encodes vals little-endian in 64 KiB chunks.
func WriteFloat32s(w io.Writer, vals []float32) error {
	return write32(w, vals, math.Float32bits)
}

// WriteInt32s encodes vals little-endian in 64 KiB chunks.
func WriteInt32s(w io.Writer, vals []int32) error {
	return write32(w, vals, func(v int32) uint32 { return uint32(v) })
}
