package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/meta"
	"repro/internal/vecmath"
)

// buildMappedTestNSG builds one of the persistence-relevant index shapes:
// plain float32, relaid, and SQ8 quantized (usually relaid too).
func buildMappedTestNSG(t testing.TB, base vecmath.Matrix, relayout, quantize bool) *NSG {
	t.Helper()
	idx := buildQuantTestNSG(t, base)
	if relayout {
		idx.Relayout()
	}
	if quantize {
		if err := idx.EnableQuantization(nil); err != nil {
			t.Fatal(err)
		}
	}
	idx.Meta = testMetaStore(t, base.Rows)
	return idx
}

// testMetaStore builds a small metadata store (one column per type) so the
// mapped record carries all six sections and roundtrips exercise the codec.
func testMetaStore(t testing.TB, rows int) *meta.Store {
	t.Helper()
	prices := make([]int64, rows)
	cats := make([]string, rows)
	tags := make([][]string, rows)
	for i := range prices {
		prices[i] = int64(i * 3)
		cats[i] = fmt.Sprintf("cat%d", i%5)
		if i%2 == 0 {
			tags[i] = []string{"even"}
		}
	}
	s := meta.New(rows)
	if err := s.AddInt64("price", prices); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEnum("category", cats); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTags("tags", tags); err != nil {
		t.Fatal(err)
	}
	return s
}

func saveMappedTemp(t testing.TB, x *NSG) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.nsgm")
	if err := x.SaveMapped(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMappedHeapParity: a mapped index must return byte-identical results
// to the heap index it was saved from — same public ids, same float
// distance bits, same hop counts — across every index shape, with and
// without deep verification.
func TestMappedHeapParity(t *testing.T) {
	base := testBase(t, 600, 24, 7)
	queries := testBase(t, 40, 24, 8)
	for _, shape := range []struct {
		name     string
		relayout bool
		quantize bool
	}{
		{"plain", false, false},
		{"relaid", true, false},
		{"quant", false, true},
		{"relaid-quant", true, true},
	} {
		t.Run(shape.name, func(t *testing.T) {
			heap := buildMappedTestNSG(t, base.Clone(), shape.relayout, shape.quantize)
			path := saveMappedTemp(t, heap)
			for _, mode := range []struct {
				name string
				opts MapOptions
			}{
				{"mmap", MapOptions{}},
				{"mmap-noverify", MapOptions{NoVerify: true}},
			} {
				t.Run(mode.name, func(t *testing.T) {
					mapped, err := OpenMapped(path, mode.opts)
					if err != nil {
						t.Fatal(err)
					}
					defer mapped.Close()
					if !mapped.ReadOnly() {
						t.Fatal("mapped index not marked read-only")
					}
					hctx, mctx := NewSearchContext(), NewSearchContext()
					for qi := 0; qi < queries.Rows; qi++ {
						q := queries.Row(qi)
						hr := heap.Query(hctx, q, Query{K: 10, L: 40})
						mr := mapped.Query(mctx, q, Query{K: 10, L: 40})
						if hr.Hops != mr.Hops {
							t.Fatalf("query %d: hops %d vs %d", qi, hr.Hops, mr.Hops)
						}
						if len(hr.Neighbors) != len(mr.Neighbors) {
							t.Fatalf("query %d: %d vs %d results", qi, len(hr.Neighbors), len(mr.Neighbors))
						}
						for i := range hr.Neighbors {
							if hr.Neighbors[i].ID != mr.Neighbors[i].ID ||
								math.Float32bits(hr.Neighbors[i].Dist) != math.Float32bits(mr.Neighbors[i].Dist) {
								t.Fatalf("query %d result %d: heap (%d, %x) vs mapped (%d, %x)",
									qi, i, hr.Neighbors[i].ID, math.Float32bits(hr.Neighbors[i].Dist),
									mr.Neighbors[i].ID, math.Float32bits(mr.Neighbors[i].Dist))
							}
						}
					}
					hs, ms := heap.Stats(), mapped.Stats()
					if hs.N != ms.N || hs.MaxDegree != ms.MaxDegree || hs.Reachable != ms.Reachable {
						t.Fatalf("stats diverge: heap %+v vs mapped %+v", hs, ms)
					}
				})
			}
		})
	}
}

// TestMappedReadOnlyGuards: every mutator on a mapped index must fail with
// ErrReadOnly, and none may corrupt it for subsequent searches.
func TestMappedReadOnlyGuards(t *testing.T) {
	base := testBase(t, 300, 16, 9)
	heap := buildMappedTestNSG(t, base, true, false)
	mapped, err := OpenMapped(saveMappedTemp(t, heap), MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	if _, err := mapped.Insert(make([]float32, 16), InsertParams{}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Insert: %v, want ErrReadOnly", err)
	}
	if _, _, err := mapped.Compact(NewTombstones(), InsertParams{}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Compact: %v, want ErrReadOnly", err)
	}
	if err := mapped.EnableQuantization(nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("EnableQuantization: %v, want ErrReadOnly", err)
	}
	if err := mapped.Write(&bytes.Buffer{}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Write: %v, want ErrReadOnly", err)
	}
	// Still searchable after every rejected mutation.
	res := mapped.Search(base.Row(0), 5, 20, nil)
	if len(res) != 5 {
		t.Fatalf("search after rejected mutations returned %d results", len(res))
	}
}

// TestPromoteToHeap: promotion yields a fully mutable index whose slabs no
// longer alias the mapping, with results identical to before.
func TestPromoteToHeap(t *testing.T) {
	base := testBase(t, 300, 16, 10)
	heap := buildMappedTestNSG(t, base.Clone(), true, true)
	mapped, err := OpenMapped(saveMappedTemp(t, heap), MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := base.Row(7)
	before := mapped.Query(NewSearchContext(), q, Query{K: 10, L: 40})
	if err := mapped.PromoteToHeap(); err != nil {
		t.Fatal(err)
	}
	if mapped.ReadOnly() {
		t.Fatal("still read-only after promotion")
	}
	after := mapped.Query(NewSearchContext(), q, Query{K: 10, L: 40})
	if fmt.Sprint(before) != fmt.Sprint(after) {
		t.Fatalf("results changed across promotion: %v vs %v", before, after)
	}
	// The mapping is released by promotion; mutations must now succeed.
	if _, err := mapped.Insert(make([]float32, 16), InsertParams{}); err != nil {
		t.Fatalf("Insert after promotion: %v", err)
	}
	if err := mapped.Close(); err != nil {
		t.Fatal(err)
	}
	// Second promotion is a no-op.
	if err := mapped.PromoteToHeap(); err != nil {
		t.Fatal(err)
	}
}

// rewriteHeaderCRC recomputes the header checksum after a deliberate header
// mutation, so corruption tests exercise the field validation rather than
// tripping on the checksum first.
func rewriteHeaderCRC(b []byte) {
	putU32(b, headerCRCOffset, crc32.ChecksumIEEE(b[:headerCRCOffset]))
}

// TestMappedCorruptionTable flips every header field, truncates at every
// section boundary, misaligns slab offsets and rots section bytes of an SQ8
// record; every mutation must yield a FormatError naming the right section,
// and OpenMapped must never serve a partially valid index. The int4 case is
// a record from before int4 was removed: its header carries the retired
// int4 marker in place of the SQ8 flag, and it must be refused at the
// header, not misread as SQ8 or float32.
func TestMappedCorruptionTable(t *testing.T) {
	base := testBase(t, 200, 12, 11)
	heap := buildMappedTestNSG(t, base, true, true)
	var buf bytes.Buffer
	if err := heap.WriteMapped(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	t.Run("sq8", func(t *testing.T) { testMappedCorruptionTable(t, valid) })
	t.Run("int4", func(t *testing.T) {
		b := bytes.Clone(valid)
		putU32(b, 8, getU32(b, 8)&^nsgFlagQuant|nsgFlagQuant4)
		rewriteHeaderCRC(b)
		path := filepath.Join(t.TempDir(), "int4.nsgm")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, opts := range []MapOptions{{}, {NoVerify: true}} {
			idx, err := OpenMapped(path, opts)
			if err == nil {
				idx.Close()
				t.Fatalf("%+v: int4 record opened without error", opts)
			}
			var fe *FormatError
			if !errors.As(err, &fe) || fe.Section != SectionHeader {
				t.Fatalf("%+v: got %v, want a header FormatError", opts, err)
			}
		}
	})
}

func testMappedCorruptionTable(t *testing.T, valid []byte) {

	// Section table as written, for boundary-aware corruption.
	type sec struct {
		name string
		off  int64
		len  int64
	}
	var secs []sec
	for i := 0; i < mappedSections; i++ {
		o := int64(getU64(valid, sectionTableStart+i*sectionEntrySize))
		l := int64(getU64(valid, sectionTableStart+i*sectionEntrySize+8))
		if l > 0 {
			secs = append(secs, sec{Section(i + 1).String(), o, l})
		}
	}
	if len(secs) != mappedSections {
		t.Fatalf("relaid+quantized index should populate all %d sections: got %d", mappedSections, len(secs))
	}

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		section Section // -1: any FormatError acceptable
	}{
		{"bad-magic", func(b []byte) []byte { putU32(b, 0, 0xdeadbeef); rewriteHeaderCRC(b); return b }, SectionHeader},
		{"bad-version", func(b []byte) []byte { putU32(b, 4, 99); rewriteHeaderCRC(b); return b }, SectionHeader},
		{"unknown-flags", func(b []byte) []byte { putU32(b, 8, getU32(b, 8)|1<<7); rewriteHeaderCRC(b); return b }, SectionHeader},
		{"both-quant-flags", func(b []byte) []byte {
			putU32(b, 8, getU32(b, 8)|nsgFlagQuant|nsgFlagQuant4)
			rewriteHeaderCRC(b)
			return b
		}, SectionHeader},
		{"zero-rows", func(b []byte) []byte { putU32(b, 12, 0); rewriteHeaderCRC(b); return b }, SectionHeader},
		{"huge-rows", func(b []byte) []byte { putU32(b, 12, 1<<31-1); rewriteHeaderCRC(b); return b }, SectionHeader},
		{"zero-dim", func(b []byte) []byte { putU32(b, 16, 0); rewriteHeaderCRC(b); return b }, SectionHeader},
		{"huge-dim", func(b []byte) []byte { putU32(b, 16, 1<<24); rewriteHeaderCRC(b); return b }, SectionHeader},
		{"zero-stride", func(b []byte) []byte { putU32(b, 20, 0); rewriteHeaderCRC(b); return b }, SectionHeader},
		{"nav-out-of-range", func(b []byte) []byte { putU32(b, 24, getU32(b, 12)); rewriteHeaderCRC(b); return b }, SectionHeader},
		{"huge-m", func(b []byte) []byte { putU32(b, 28, 1<<24); rewriteHeaderCRC(b); return b }, SectionHeader},
		{"record-size-misaligned", func(b []byte) []byte { putU64(b, 32, getU64(b, 32)-4); rewriteHeaderCRC(b); return b }, SectionHeader},
		{"record-size-too-big", func(b []byte) []byte { putU64(b, 32, getU64(b, 32)+64); rewriteHeaderCRC(b); return b }, SectionHeader},
		{"header-crc-flip", func(b []byte) []byte { b[headerCRCOffset] ^= 0xff; return b }, SectionHeader},
		{"header-field-flip-no-crc-fix", func(b []byte) []byte { b[12] ^= 0x01; return b }, SectionHeader},
	}
	// Truncation at and around every section boundary: a file cut anywhere
	// must be rejected, never partially served.
	cuts := map[int64]bool{0: true, 1: true, mappedHeaderSize - 1: true, mappedHeaderSize: true}
	for _, s := range secs {
		cuts[s.off] = true
		cuts[s.off+s.len-1] = true
		cuts[s.off+s.len] = true
	}
	delete(cuts, int64(len(valid))) // the full file is the one valid length
	for cut := range cuts {
		cut := cut
		cases = append(cases, struct {
			name    string
			mutate  func([]byte) []byte
			section Section
		}{fmt.Sprintf("truncate-at-%d", cut), func(b []byte) []byte { return b[:cut] }, -1})
	}
	// Misalign each present section's offset (+4, CRC fixed up so the
	// geometry check itself must catch it).
	for i := 0; i < mappedSections; i++ {
		i := i
		if getU64(valid, sectionTableStart+i*sectionEntrySize+8) == 0 {
			continue
		}
		cases = append(cases, struct {
			name    string
			mutate  func([]byte) []byte
			section Section
		}{fmt.Sprintf("misalign-%s", Section(i+1)), func(b []byte) []byte {
			base := sectionTableStart + i*sectionEntrySize
			putU64(b, base, getU64(b, base)+4)
			rewriteHeaderCRC(b)
			return b
		}, Section(i + 1)})
	}
	// Rot one byte in the middle of each section body (deep verify catches
	// it via the per-section CRC).
	for _, s := range secs {
		s := s
		cases = append(cases, struct {
			name    string
			mutate  func([]byte) []byte
			section Section
		}{"rot-" + s.name, func(b []byte) []byte { b[s.off+s.len/2] ^= 0x40; return b }, -1})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(append([]byte(nil), valid...))
			path := filepath.Join(t.TempDir(), "corrupt.nsgm")
			if err := os.WriteFile(path, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			idx, err := OpenMapped(path, MapOptions{})
			if err == nil {
				idx.Close()
				t.Fatal("corrupt file opened without error")
			}
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v is not a FormatError", err)
			}
			if tc.section >= 0 && fe.Section != tc.section {
				t.Fatalf("error names section %s, want %s (%v)", fe.Section, tc.section, err)
			}
		})
	}
}

// TestMappedRemapValidatedUnderNoVerify: the remap permutation check runs
// even with NoVerify, because a bad entry turns into an out-of-bounds
// access on the first translated result.
func TestMappedRemapValidatedUnderNoVerify(t *testing.T) {
	base := testBase(t, 200, 12, 12)
	heap := buildMappedTestNSG(t, base, true, false)
	var buf bytes.Buffer
	if err := heap.WriteMapped(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	remapOff := int64(getU64(b, sectionTableStart+2*sectionEntrySize))
	if remapOff == 0 {
		t.Fatal("relaid index should carry a remap section")
	}
	// Duplicate entry 0 into entry 1: still in range, no longer a permutation.
	copy(b[remapOff+4:remapOff+8], b[remapOff:remapOff+4])
	path := filepath.Join(t.TempDir(), "badremap.nsgm")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenMapped(path, MapOptions{NoVerify: true})
	var fe *FormatError
	if !errors.As(err, &fe) || fe.Section != SectionRemap {
		t.Fatalf("NoVerify open of broken remap: %v, want remap FormatError", err)
	}
}

// TestWriteMappedRecordSize: MappedSize must predict WriteMapped exactly,
// and the record must be alignment-padded throughout.
func TestWriteMappedRecordSize(t *testing.T) {
	base := testBase(t, 150, 10, 13)
	for _, quantize := range []bool{false, true} {
		heap := buildMappedTestNSG(t, base.Clone(), quantize, quantize)
		var buf bytes.Buffer
		if err := heap.WriteMapped(&buf); err != nil {
			t.Fatal(err)
		}
		if int64(buf.Len()) != heap.MappedSize() {
			t.Fatalf("wrote %d bytes, MappedSize says %d", buf.Len(), heap.MappedSize())
		}
		if buf.Len()%mappedAlign != 0 {
			t.Fatalf("record size %d not %d-aligned", buf.Len(), mappedAlign)
		}
	}
}

// FuzzOpenMapped hardens the aligned-record reader: arbitrary bytes must
// produce a clean typed error or a fully valid searchable index — no
// panics, no partially initialized state.
func FuzzOpenMapped(f *testing.F) {
	base := testBase(f, 64, 8, 14)
	for _, shape := range []struct {
		relayout, quantize bool
		int4Flag           bool // the SQ8 flag swapped for the retired int4 marker
	}{
		{false, false, false},
		{true, true, false},
		{true, true, true},
	} {
		idx := buildMappedTestNSG(f, base.Clone(), shape.relayout, shape.quantize)
		var buf bytes.Buffer
		if err := idx.WriteMapped(&buf); err != nil {
			f.Fatal(err)
		}
		b := buf.Bytes()
		if shape.int4Flag {
			putU32(b, 8, getU32(b, 8)&^nsgFlagQuant|nsgFlagQuant4)
			rewriteHeaderCRC(b)
		}
		f.Add(b)
		f.Add(b[:mappedHeaderSize])
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0}, mappedHeaderSize))
	// One scratch file per worker process; each exec overwrites it (cheaper
	// than a TempDir per exec, which dominates fuzz throughput).
	path := filepath.Join(f.TempDir(), "fuzz.nsgm")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		for _, opts := range []MapOptions{{}, {NoVerify: true}} {
			idx, err := OpenMapped(path, opts)
			if err != nil {
				continue
			}
			// A verified open must be coherent enough to traverse; NoVerify
			// explicitly trusts the slabs, so only the open path itself is
			// held to the no-panic bar there.
			if !opts.NoVerify {
				st := idx.Stats()
				if st.N <= 0 {
					t.Fatal("opened index with no rows and no error")
				}
				q := make([]float32, idx.Base.Dim)
				idx.Search(q, 3, 10, nil)
			}
			idx.Close()
		}
	})
}
