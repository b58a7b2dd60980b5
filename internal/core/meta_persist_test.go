package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/meta"
)

// metaFingerprint compiles a fixed mixed predicate against a store and
// returns the bitmap, so two stores can be compared by observable behavior
// rather than internal layout.
func metaFingerprint(t *testing.T, s *meta.Store) []uint64 {
	t.Helper()
	p := meta.Or(
		meta.And(meta.Range("price", 30, 300), meta.Eq("category", "cat2")),
		meta.HasTag("tags", "even"),
	)
	bits := make([]uint64, meta.BitsLen(s.Rows()))
	if _, err := s.Compile(p, bits); err != nil {
		t.Fatal(err)
	}
	return bits
}

// TestMetaRoundtripStream: a store attached to the index survives the NSGQ
// stream format byte-exactly, for plain and quantized shapes.
func TestMetaRoundtripStream(t *testing.T) {
	base := testBase(t, 250, 12, 3)
	for _, tc := range []struct {
		name     string
		quantize bool
	}{{"float32", false}, {"sq8", true}} {
		t.Run(tc.name, func(t *testing.T) {
			idx := buildMappedTestNSG(t, base.Clone(), true, tc.quantize)
			var buf bytes.Buffer
			if err := idx.Write(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := ReadNSG(bytes.NewReader(buf.Bytes()), base.Clone())
			if err != nil {
				t.Fatal(err)
			}
			if got.Meta == nil {
				t.Fatal("metadata dropped by stream roundtrip")
			}
			if got.Meta.Rows() != idx.Meta.Rows() {
				t.Fatalf("rows %d != %d", got.Meta.Rows(), idx.Meta.Rows())
			}
			want := metaFingerprint(t, idx.Meta)
			have := metaFingerprint(t, got.Meta)
			for i := range want {
				if want[i] != have[i] {
					t.Fatalf("predicate bitmap diverges at word %d: %#x vs %#x", i, want[i], have[i])
				}
			}
		})
	}
}

// TestMetaRoundtripMapped: the NSGM meta section roundtrips under both
// verification modes, and PromoteToHeap keeps the store.
func TestMetaRoundtripMapped(t *testing.T) {
	base := testBase(t, 250, 12, 4)
	idx := buildMappedTestNSG(t, base.Clone(), true, true)
	path := saveMappedTemp(t, idx)
	for _, opts := range []MapOptions{{}, {NoVerify: true}} {
		mapped, err := OpenMapped(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		if mapped.Meta == nil {
			t.Fatal("metadata dropped by mapped open")
		}
		want := metaFingerprint(t, idx.Meta)
		have := metaFingerprint(t, mapped.Meta)
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("predicate bitmap diverges at word %d", i)
			}
		}
		if err := mapped.PromoteToHeap(); err != nil {
			t.Fatal(err)
		}
		if mapped.Meta == nil {
			t.Fatal("metadata dropped by promotion")
		}
	}
}

// TestMetaBlobCorruption: a flipped byte inside the metadata blob must fail
// the open on every path — the stream reader, the verifying mapped open
// (section CRC) and the NoVerify mapped open (the blob's own checksum).
func TestMetaBlobCorruption(t *testing.T) {
	base := testBase(t, 200, 12, 5)
	idx := buildMappedTestNSG(t, base.Clone(), true, false)

	t.Run("stream", func(t *testing.T) {
		var buf bytes.Buffer
		if err := idx.Write(&buf); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()
		b[len(b)-3] ^= 0xff // inside the trailing meta blob
		if _, err := ReadNSG(bytes.NewReader(b), base.Clone()); err == nil {
			t.Fatal("corrupt meta blob accepted by stream reader")
		}
	})

	t.Run("mapped", func(t *testing.T) {
		var buf bytes.Buffer
		if err := idx.WriteMapped(&buf); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()
		mOff := int64(getU64(b, sectionTableStart+5*sectionEntrySize))
		mLen := int64(getU64(b, sectionTableStart+5*sectionEntrySize+8))
		if mLen == 0 {
			t.Fatal("meta section missing from record")
		}
		b[mOff+mLen/2] ^= 0xff
		path := filepath.Join(t.TempDir(), "badmeta.nsgm")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, opts := range []MapOptions{{}, {NoVerify: true}} {
			_, err := OpenMapped(path, opts)
			var fe *FormatError
			if !errors.As(err, &fe) || fe.Section != SectionMeta {
				t.Fatalf("NoVerify=%v: got %v, want FormatError in meta section", opts.NoVerify, err)
			}
		}
	})
}
