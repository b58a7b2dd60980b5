package core

// The metadata section of a record: only the one-index files of older
// builds carry one (no writer does any more), and the readers hand it,
// undecoded, to the container that decodes it. These tests read the files
// such a build wrote, under testdata/legacy in the repository root.

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/meta"
	"repro/internal/mstore"
	"repro/internal/vecmath"
)

func legacyFile(name string) string { return filepath.Join("..", "..", "testdata", "legacy", name) }

// legacyBundleRecord splits an NSGB fixture into its vectors (rows x dim
// after the 12-byte header of magic, rows and dim) and the NSG record that
// follows them.
func legacyBundleRecord(t *testing.T, name string) ([]byte, vecmath.Matrix) {
	t.Helper()
	b, err := os.ReadFile(legacyFile(name))
	if err != nil {
		t.Fatal(err)
	}
	rows, dim := int(le.Uint32(b[4:])), int(le.Uint32(b[8:]))
	base := vecmath.NewMatrix(rows, dim)
	for i := range base.Data {
		base.Data[i] = math.Float32frombits(le.Uint32(b[12+4*i:]))
	}
	return b[12+4*len(base.Data):], base
}

// TestMetaRoundtripStream: ReadNSG hands back an older record's metadata
// section, the record's tail byte for byte, which decodes to the store the
// fixture was written with (Eq("category", "c3") passes 24 of 240 rows),
// for float32 and SQ8 records; a record cut short inside the section fails
// the read.
func TestMetaRoundtripStream(t *testing.T) {
	for _, tc := range []struct{ name, file string }{{"float32", "one_f32.nsgb"}, {"sq8", "one_sq8.nsgb"}} {
		t.Run(tc.name, func(t *testing.T) {
			rec, base := legacyBundleRecord(t, tc.file)
			x, blob, err := ReadNSG(bytes.NewReader(rec), base)
			if err != nil {
				t.Fatal(err)
			}
			if x.IsQuantized() != (tc.name == "sq8") || blob == nil || !bytes.HasSuffix(rec, blob) {
				t.Fatalf("quantized %v, metadata blob of %d bytes (record tail: %v)", x.IsQuantized(), len(blob), bytes.HasSuffix(rec, blob))
			}
			st, err := meta.Decode(blob, base.Rows)
			if err != nil {
				t.Fatal(err)
			}
			bits := make([]uint64, meta.BitsLen(st.Rows()))
			if n, err := st.Compile(meta.Eq("category", "c3"), bits); err != nil || n != 24 {
				t.Fatalf("the decoded store passes %d rows (%v), want 24", n, err)
			}
			_, base = legacyBundleRecord(t, tc.file)
			if _, _, err := ReadNSG(bytes.NewReader(rec[:len(rec)-3]), base); err == nil {
				t.Fatal("a record cut inside its metadata section was read")
			}
		})
	}
}

// TestMetaRoundtripMapped: OpenMappedAt hands back the metadata section of
// an older top-level NSGM record, under both verification modes, as the
// bytes its NSGB twin carries (both were written from one store), and the
// record promotes to the heap.
func TestMetaRoundtripMapped(t *testing.T) {
	rec, base := legacyBundleRecord(t, "one_sq8.nsgb")
	_, want, err := ReadNSG(bytes.NewReader(rec), base)
	if err != nil {
		t.Fatal(err)
	}
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
		if !bytes.Equal(blob, want) {
			t.Fatalf("%+v: metadata section of %d bytes, the stream record's has %d", opts, len(blob), len(want))
		}
		x.PromoteToHeap()
		if x.ReadOnly() || len(x.Search(base.Row(0), 5, 20, nil)) != 5 {
			t.Fatalf("%+v: the promoted record does not serve", opts)
		}
	}
}

// TestMetaBlobCorruption: an older record whose metadata size word is past
// any real store fails the stream read, and one with a flipped byte inside
// its mapped metadata section fails the verified open as corrupt there (a
// NoVerify open hands the bytes on; the container's decode rejects them).
func TestMetaBlobCorruption(t *testing.T) {
	t.Run("stream", func(t *testing.T) {
		rec, base := legacyBundleRecord(t, "one_f32.nsgb")
		_, blob, err := ReadNSG(bytes.NewReader(rec), base)
		if err != nil {
			t.Fatal(err)
		}
		_, base = legacyBundleRecord(t, "one_f32.nsgb")
		le.PutUint32(rec[len(rec)-len(blob)-4:], maxMetaBlob+1)
		if _, _, err := ReadNSG(bytes.NewReader(rec), base); err == nil {
			t.Fatal("a metadata size past any real store was read")
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
