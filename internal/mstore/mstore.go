// Package mstore owns file-backed index storage: it memory-maps index
// files so slabs (CSR offsets and edges, vector matrices, SQ8 code
// matrices, remap tables) are served zero-copy straight from the page
// cache. Where mmap is unavailable (platforms without it, or a mapping the
// kernel refuses) each requested range is read with one pread into an
// 8-byte-aligned heap buffer instead. The mapped readers ask for every
// section once, at open, so the fallback has nothing to cache: one copy of
// each slab is exactly what it must hold.
//
// The package deliberately knows nothing about index formats. It hands
// out byte ranges ([File.Bytes]) and typed little-endian views of them
// ([Int32s], [Float32s]); internal/core's mapped reader layers the NSGM
// record format on top.
//
// Mapped memory is PROT_READ: an accidental write through a mapped slab
// faults instead of silently corrupting the file, which backs the copy on
// write of the mapped index types (every write copies out of the mapping
// first, so none may land in it). Once a writer has copied a range out,
// [File.Release] hands its resident pages back (on Linux; elsewhere they
// stay until Close), so the copies do not sit beside them.
package mstore

import (
	"fmt"
	"os"
	"unsafe"
)

// forcePread makes Open skip mmap, so this package's tests can drive the
// fallback path on a platform that has mmap. Nothing else sets it.
var forcePread bool

// File is a read-only view of an index file: either one contiguous mmap
// or a descriptor that Bytes reads ranges from. Safe for concurrent
// readers after Open.
type File struct {
	size int64
	data []byte   // mmap mode; nil in fallback mode
	f    *os.File // fallback mode; nil once mapped
}

// Open opens path read-only. It memory-maps the whole file unless the
// platform lacks mmap, in which case Bytes reads ranges with pread.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mstore: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("mstore: %w", err)
	}
	size := st.Size()
	out := &File{size: size}
	if !forcePread && size > 0 {
		if data, err := mmapFile(f, size); err == nil {
			out.data = data
			f.Close() // the mapping outlives the descriptor
			return out, nil
		}
		// Fall through to pread on any mmap failure (including platforms
		// whose stub always errors).
	}
	out.f = f
	return out, nil
}

// Size returns the file size in bytes.
func (m *File) Size() int64 { return m.size }

// Bytes returns the n bytes at offset off. In mmap mode this is a
// zero-copy subslice of the mapping, valid until Close; in fallback mode
// the range is read into fresh 8-byte-aligned heap memory, so the typed
// views below hold on the copy as well. The returned bytes must not be
// modified.
func (m *File) Bytes(off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off+n > m.size || off+n < off {
		return nil, fmt.Errorf("mstore: range [%d,%d) outside file of %d bytes", off, off+n, m.size)
	}
	if m.data != nil {
		return m.data[off : off+n : off+n], nil
	}
	buf := alignedBytes(int(n))
	if _, err := m.f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("mstore: pread [%d,%d): %w", off, off+n, err)
	}
	return buf, nil
}

// Release drops the resident pages wholly inside the n bytes at off, once
// the caller has copied them out; a later read faults them back in from
// the file. A no-op in fallback mode, off Linux, or outside the file.
func (m *File) Release(off, n int64) {
	if m.data == nil || off < 0 || n < 0 || off+n > m.size {
		return
	}
	page := int64(os.Getpagesize())
	lo, hi := (off+page-1)/page*page, (off+n)/page*page
	if lo < hi {
		dropPages(m.data[lo:hi])
	}
}

// Close releases the mapping or the descriptor. Byte ranges returned by
// Bytes in mmap mode become invalid; ranges from the fallback path remain
// usable (they are heap copies).
func (m *File) Close() error {
	var err error
	if m.data != nil {
		err = munmapFile(m.data)
		m.data = nil
	}
	if m.f != nil {
		if cerr := m.f.Close(); err == nil {
			err = cerr
		}
		m.f = nil
	}
	return err
}

// alignedBytes allocates n bytes whose base pointer is at least 8-byte
// aligned, so typed views of fallback copies satisfy the same alignment
// contract as mapped ranges.
func alignedBytes(n int) []byte {
	if n == 0 {
		return []byte{}
	}
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)[:n:n]
}

// HostLittleEndian reports whether the host stores integers little-endian.
// The typed views below reinterpret on-disk little-endian slabs in place,
// and every index file is read through them, so a big-endian host cannot
// open index files.
func HostLittleEndian() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// Int32s reinterprets b as a little-endian []int32 without copying.
// b must be 4-byte aligned and a multiple of 4 long, and the host must be
// little-endian; violations are programmer errors and panic.
func Int32s(b []byte) []int32 {
	checkView(b, 4)
	if len(b) == 0 {
		return []int32{}
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// Float32s reinterprets b as a little-endian []float32 without copying,
// under the same contract as Int32s.
func Float32s(b []byte) []float32 {
	checkView(b, 4)
	if len(b) == 0 {
		return []float32{}
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func checkView(b []byte, width int) {
	if !HostLittleEndian() {
		panic("mstore: typed views require a little-endian host")
	}
	if len(b)%width != 0 {
		panic(fmt.Sprintf("mstore: view of %d bytes is not a multiple of %d", len(b), width))
	}
	if len(b) > 0 && uintptr(unsafe.Pointer(&b[0]))%uintptr(width) != 0 {
		panic("mstore: misaligned typed view")
	}
}
