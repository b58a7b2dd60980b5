// Package chunkio is the one chunked little-endian scalar codec every
// persistence path shares: float32 matrices, int32 id maps (shard
// partitions, relayout remap tables, CSR offsets and edges) and quantizer
// bounds all encode through a reused 64 KiB buffer, so writing a million
// values costs a handful of buffer-boundary crossings instead of one Write
// per scalar.
// Readers consume exactly the bytes their writer produced, so sections
// embed in larger files; nothing here adds its own buffering.
package chunkio

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// chunk is the number of 4-byte scalars encoded per I/O operation (64 KiB).
const chunk = 16384

// write32 encodes vals through one reused chunk buffer.
func write32[T any](w io.Writer, vals []T, bits func(T) uint32) error {
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

// read32 decodes exactly len(dst) scalars written by write32.
func read32[T any](r io.Reader, dst []T, from func(uint32) T) error {
	buf := make([]byte, chunk*4)
	for off := 0; off < len(dst); off += chunk {
		end := min(off+chunk, len(dst))
		b := buf[:(end-off)*4]
		if _, err := io.ReadFull(r, b); err != nil {
			return fmt.Errorf("chunkio: truncated stream: %w", err)
		}
		for i := off; i < end; i++ {
			dst[i] = from(binary.LittleEndian.Uint32(b[(i-off)*4:]))
		}
	}
	return nil
}

// WriteFloat32s encodes vals little-endian in 64 KiB chunks.
func WriteFloat32s(w io.Writer, vals []float32) error {
	return write32(w, vals, math.Float32bits)
}

// ReadFloat32s fills dst with float32s written by WriteFloat32s.
func ReadFloat32s(r io.Reader, dst []float32) error {
	return read32(r, dst, math.Float32frombits)
}

// WriteInt32s encodes vals little-endian in 64 KiB chunks.
func WriteInt32s(w io.Writer, vals []int32) error {
	return write32(w, vals, func(v int32) uint32 { return uint32(v) })
}

// ReadInt32s fills dst with int32s written by WriteInt32s.
func ReadInt32s(r io.Reader, dst []int32) error {
	return read32(r, dst, func(u uint32) int32 { return int32(u) })
}
