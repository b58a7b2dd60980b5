package core

// The metadata section of a record: only the one-index files of older
// builds carry one (no writer does any more), and the reader hands it,
// undecoded, to the container that decodes it. These tests read the files
// such a build wrote, under testdata/legacy in the repository root.

import (
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/meta"
	"repro/internal/mstore"
)

func legacyFile(name string) string { return filepath.Join("..", "..", "testdata", "legacy", name) }

// TestMetaRoundtripMapped: OpenMappedAt hands back the metadata section of
// an older top-level NSGM record, under both verification modes, and it
// decodes to the store the fixture was written with (Eq("category", "c3")
// passes 24 of 240 rows); the record promotes to the heap.
func TestMetaRoundtripMapped(t *testing.T) {
	f, err := mstore.Open(legacyFile("one_sq8.nsgm"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, opts := range []MapOptions{{}, {NoVerify: true}} {
		x, blob, err := OpenMappedAt(f, 0, f.Size(), opts)
		if err != nil {
			t.Fatal(err)
		}
		st, err := meta.Decode(blob, x.Base.Rows)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		bits := make([]uint64, meta.BitsLen(st.Rows()))
		if n, err := st.Compile(meta.Eq("category", "c3"), bits); err != nil || n != 24 {
			t.Fatalf("%+v: the decoded store passes %d rows (%v), want 24", opts, n, err)
		}
		x.PromoteToHeap()
		if x.ReadOnly() || len(x.Search(x.Base.Row(0), 5, 20, nil)) != 5 {
			t.Fatalf("%+v: the promoted record does not serve", opts)
		}
	}
}

// TestMetaBlobCorruption: an older record whose metadata length is past
// any real store, and one with a flipped byte inside its metadata section,
// fail the verified open as corrupt there (a NoVerify open of the second
// hands the bytes on; the container's decode rejects them).
func TestMetaBlobCorruption(t *testing.T) {
	t.Run("size", func(t *testing.T) {
		b, err := os.ReadFile(legacyFile("one_f32.nsgm"))
		if err != nil {
			t.Fatal(err)
		}
		le.PutUint64(b[sectionTableStart+5*sectionEntrySize+8:], maxMetaBlob+1)
		le.PutUint32(b[headerCRCOffset:], crc32.ChecksumIEEE(b[:headerCRCOffset]))
		path := filepath.Join(t.TempDir(), "bigmeta.nsgm")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = OpenMappedFile(t, path, MapOptions{})
		var fe *FormatError
		if !errors.As(err, &fe) || fe.Section != SectionMeta {
			t.Fatalf("got %v, want a FormatError in the meta section", err)
		}
	})
	t.Run("mapped", func(t *testing.T) {
		b, err := os.ReadFile(legacyFile("one_f32.nsgm"))
		if err != nil {
			t.Fatal(err)
		}
		off, size := le.Uint64(b[sectionTableStart+5*sectionEntrySize:]), le.Uint64(b[sectionTableStart+5*sectionEntrySize+8:])
		b[off+size/2] ^= 0xff
		path := filepath.Join(t.TempDir(), "badmeta.nsgm")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = OpenMappedFile(t, path, MapOptions{})
		var fe *FormatError
		if !errors.As(err, &fe) || fe.Section != SectionMeta {
			t.Fatalf("got %v, want a FormatError in the meta section", err)
		}
	})
}
