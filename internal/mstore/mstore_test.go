package mstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "blob")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func randomBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// Both paths must serve identical bytes for identical ranges: aligned,
// unaligned and whole-file. The pread path is what platforms without mmap
// run; forcePread drives it here.
func TestBytesParityAcrossModes(t *testing.T) {
	data := randomBytes(3<<20+123, 1)
	path := writeTemp(t, data)
	for _, pread := range []bool{false, true} {
		name := "mmap"
		if pread {
			name = "pread"
		}
		t.Run(name, func(t *testing.T) {
			forcePread = pread
			defer func() { forcePread = false }()
			f, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if f.Size() != int64(len(data)) {
				t.Fatalf("size %d, want %d", f.Size(), len(data))
			}
			if mapped := f.data != nil; mapped == pread {
				t.Fatalf("mapped=%v with forcePread=%v", mapped, pread)
			}
			for _, r := range [][2]int64{{0, 100}, {1 << 20, 2 << 20}, {64, 4096}, {3, 1001}, {int64(len(data)) - 7, 7}, {0, int64(len(data))}, {500, 0}} {
				got, err := f.Bytes(r[0], r[1])
				if err != nil {
					t.Fatalf("Bytes(%d,%d): %v", r[0], r[1], err)
				}
				if !bytes.Equal(got, data[r[0]:r[0]+r[1]]) {
					t.Fatalf("Bytes(%d,%d) mismatch", r[0], r[1])
				}
				if pread && len(got) > 0 && uintptr(unsafe.Pointer(&got[0]))%8 != 0 {
					t.Fatalf("Bytes(%d,%d): pread copy is not 8-byte aligned", r[0], r[1])
				}
			}
			// Out-of-range requests must error, not panic or truncate.
			for _, r := range [][2]int64{{-1, 4}, {0, int64(len(data)) + 1}, {int64(len(data)), 1}, {4, -2}} {
				if _, err := f.Bytes(r[0], r[1]); err == nil {
					t.Fatalf("Bytes(%d,%d): expected error", r[0], r[1])
				}
			}
		})
	}
}

func TestTypedViews(t *testing.T) {
	if !HostLittleEndian() {
		t.Skip("typed views require a little-endian host")
	}
	// Plain make([]byte) carries no alignment guarantee (it may even be
	// stack-allocated at an odd address); views are only ever taken of
	// mapped or alignedBytes-backed memory.
	raw := alignedBytes(16)
	for i, v := range []int32{1, -2, 1 << 30, -(1 << 30)} {
		binary.LittleEndian.PutUint32(raw[i*4:], uint32(v))
	}
	ints := Int32s(raw)
	want := []int32{1, -2, 1 << 30, -(1 << 30)}
	for i := range want {
		if ints[i] != want[i] {
			t.Fatalf("Int32s[%d] = %d, want %d", i, ints[i], want[i])
		}
	}
	floats := Float32s(raw)
	if len(floats) != 4 {
		t.Fatalf("Float32s length %d", len(floats))
	}
	if len(Int32s(nil)) != 0 || len(Float32s([]byte{})) != 0 {
		t.Fatal("empty views must be empty")
	}
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("odd length", func() { Int32s(raw[:3]) })
	mustPanic("misaligned", func() { Int32s(raw[1:13]) })
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("first version"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "first version" {
		t.Fatalf("read back %q, %v", got, err)
	}

	// A failing writer must leave the previous contents untouched and
	// clean up its temp file.
	boom := errors.New("boom")
	err = WriteFileAtomic(path, func(w io.Writer) error {
		if _, werr := w.Write([]byte("partial garbage")); werr != nil {
			return werr
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	got, err = os.ReadFile(path)
	if err != nil || string(got) != "first version" {
		t.Fatalf("after failed write: %q, %v", got, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		names := ""
		for _, e := range ents {
			names += " " + e.Name()
		}
		t.Fatalf("leftover files after failed write:%s", names)
	}
}

func TestProcStats(t *testing.T) {
	ps := ReadProcStats()
	// Counters are best-effort zero off Linux; on Linux a running test
	// process certainly has resident memory.
	if ps.RSSBytes < 0 {
		t.Fatalf("negative RSS %d", ps.RSSBytes)
	}
	_ = fmt.Sprintf("%+v", ps)
}

// TestReleaseKeepsBytes: Release only drops resident pages. Ranges read
// before and after it serve the file's bytes in both modes, and in the
// pread mode, where Bytes hands out heap copies, it touches nothing.
func TestReleaseKeepsBytes(t *testing.T) {
	data := randomBytes(1<<20+333, 2)
	path := writeTemp(t, data)
	for _, pread := range []bool{false, true} {
		forcePread = pread
		f, err := Open(path)
		forcePread = false
		if err != nil {
			t.Fatal(err)
		}
		before, err := f.Bytes(0, f.Size())
		if err != nil {
			t.Fatal(err)
		}
		f.Release(100, f.Size()-200) // unaligned ends: the whole pages inside
		f.Release(0, f.Size())
		f.Release(-1, 10) // outside the file: ignored
		f.Release(0, f.Size()+1)
		after, err := f.Bytes(77, 300000)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, data) || !bytes.Equal(after, data[77:77+300000]) {
			t.Fatalf("pread=%v: bytes changed across Release", pread)
		}
		f.Close()
	}
}
