package core

// The metadata section of a record: only the one-index files of older
// builds carry one, and no build reads it any more (a container keeps its
// store in a section of its own). These tests read the files such a build
// wrote, under testdata/legacy in the repository root.

import (
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func legacyFile(name string) string { return filepath.Join("..", "..", "testdata", "legacy", name) }

// TestMetaBlobCorruption: an older record whose metadata length is past
// any real store, and one with a flipped byte inside its metadata section,
// are refused at the header, as the intact record is: the metadata flag is
// an unknown bit in every version, under both verification modes.
func TestMetaBlobCorruption(t *testing.T) {
	for name, mutate := range map[string]func(b []byte){
		"size": func(b []byte) {
			le.PutUint64(b[sectionTableStart+5*sectionEntrySize+8:], 1<<30+1)
			le.PutUint32(b[headerCRCOffset:], crc32.ChecksumIEEE(b[:headerCRCOffset]))
		},
		"mapped": func(b []byte) {
			off, size := le.Uint64(b[sectionTableStart+5*sectionEntrySize:]), le.Uint64(b[sectionTableStart+5*sectionEntrySize+8:])
			b[off+size/2] ^= 0xff
		},
	} {
		t.Run(name, func(t *testing.T) {
			b, err := os.ReadFile(legacyFile("one_f32.nsgm"))
			if err != nil {
				t.Fatal(err)
			}
			if le.Uint32(b[8:])&nsgFlagMeta == 0 {
				t.Fatal("fixture record carries no metadata flag")
			}
			mutate(b)
			path := filepath.Join(t.TempDir(), "meta.nsgm")
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, opts := range []MapOptions{{}, {NoVerify: true}} {
				_, err = OpenMappedFile(t, path, opts)
				var fe *FormatError
				if !errors.As(err, &fe) || fe.Section != SectionHeader || !strings.Contains(err.Error(), "flags") {
					t.Fatalf("%+v: got %v, want a header FormatError on the flags", opts, err)
				}
			}
		})
	}
}
