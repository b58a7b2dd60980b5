package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

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
	return idx
}

func saveMappedTemp(t testing.TB, x *NSG) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.nsgm")
	SaveMappedFile(t, x, path)
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
					mapped, err := OpenMappedFile(t, path, mode.opts)
					if err != nil {
						t.Fatal(err)
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

// TestMappedWritesCopyOut: Insert succeeds on a mapped index, float or
// SQ8, by copying out of the mapping first. The index then writes the
// bytes the heap index it was saved from writes after the same Inserts, a
// snapshot taken before them answers as it did, and the file is
// unchanged.
func TestMappedWritesCopyOut(t *testing.T) {
	base := testBase(t, 300, 16, 9)
	queries := testBase(t, 20, 16, 10)
	extra := testBase(t, 5, 16, 11)
	for _, quantize := range []bool{false, true} {
		t.Run(fmt.Sprint("quantize=", quantize), func(t *testing.T) {
			heap := buildMappedTestNSG(t, base.Clone(), true, quantize)
			path := saveMappedTemp(t, heap)
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mapped, err := OpenMappedFile(t, path, MapOptions{})
			if err != nil {
				t.Fatal(err)
			}
			snap := mapped.Snapshot()
			// answers lists every result's id and distance bits and every
			// query's hops.
			answers := func(s *Snapshot) string {
				ctx := NewSearchContext()
				var sb strings.Builder
				for qi := range queries.Rows {
					res := s.Query(ctx, queries.Row(qi), Query{K: 10, L: 40})
					for _, n := range res.Neighbors {
						fmt.Fprintf(&sb, "%d:%08x ", n.ID, math.Float32bits(n.Dist))
					}
					fmt.Fprintf(&sb, "hops %d\n", res.Hops)
				}
				return sb.String()
			}
			before := answers(snap)
			for i := range extra.Rows {
				hid, herr := heap.Insert(extra.Row(i), InsertParams{})
				mid, merr := mapped.Insert(extra.Row(i), InsertParams{})
				if herr != nil || merr != nil || hid != mid {
					t.Fatalf("Insert %d: heap (%d, %v), mapped (%d, %v)", i, hid, herr, mid, merr)
				}
				// Insert copies every slab out but leaves the release to
				// its caller (the live drain calls ReleaseMapped after it
				// publishes); the snapshot taken before the writes reads
				// the file either way.
				if i == 0 {
					if mapped.release == nil {
						t.Fatal("Insert released the mapped pages itself")
					}
					mapped.ReleaseMapped()
					if mapped.release != nil {
						t.Fatal("ReleaseMapped kept the mapped pages")
					}
				}
				if got := answers(snap); got != before {
					t.Fatalf("after Insert %d, a snapshot taken before the writes changed its answers", i)
				}
			}
			var hb, mb bytes.Buffer
			if err := heap.WriteMapped(&hb); err != nil {
				t.Fatal(err)
			}
			if err := mapped.WriteMapped(&mb); err != nil {
				t.Fatalf("WriteMapped: %v", err)
			}
			if !bytes.Equal(hb.Bytes(), mb.Bytes()) {
				t.Fatalf("mapped WriteMapped after the writes: %d bytes differ from the heap index's %d", mb.Len(), hb.Len())
			}
			if got := answers(snap); got != before {
				t.Fatal("a snapshot taken before the writes changed its answers")
			}
			if got := answers(mapped.Snapshot()); got != answers(heap.Snapshot()) {
				t.Fatal("mapped and heap indexes answer differently after the same writes")
			}
			if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, file) {
				t.Fatalf("the writes changed the mapped file (%v)", err)
			}
		})
	}
}

// Header field accessors for the corruption tests.
func putU32(b []byte, off int, v uint32) { le.PutUint32(b[off:], v) }
func putU64(b []byte, off int, v uint64) { le.PutUint64(b[off:], v) }
func getU32(b []byte, off int) uint32    { return le.Uint32(b[off:]) }
func getU64(b []byte, off int) uint64    { return le.Uint64(b[off:]) }

// slotSection names the section table slot i of record b holds.
func slotSection(b []byte, i int) Section { return mappedSlots[getU32(b, 4)][i] }

// rewriteHeaderCRC recomputes the header checksum after a deliberate header
// mutation, so corruption tests exercise the field validation rather than
// tripping on the checksum first.
func rewriteHeaderCRC(b []byte) {
	putU32(b, headerCRCOffset, crc32.ChecksumIEEE(b[:headerCRCOffset]))
}

// legacyRecord reads the top-level SQ8 NSGM file an older build wrote
// (see testdata/legacy in the repository root): it fills all six
// sections, the metadata one included, which no writer fills any more and
// the reader refuses at the header flags.
func legacyRecord(t testing.TB) []byte {
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "legacy", "one_sq8.nsgm"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// version1Record reads testdata/nsgm_v1_sq8.nsgm: the version 1 record
// (fixed-stride adjacency rows, five sections) that the build before CSR
// (commit 2dc1af9) wrote for buildMappedTestNSG(testBase(t, 200, 12, 11),
// relaid, SQ8).
func version1Record(t testing.TB) []byte {
	b, err := os.ReadFile(filepath.Join("testdata", "nsgm_v1_sq8.nsgm"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMappedVersion1Opens: a version 1 record opens, its rows converted to
// CSR, and answers as the same index built today does, ids, distance bits
// and hops alike, under both verify modes and after the same Insert.
func TestMappedVersion1Opens(t *testing.T) {
	base := testBase(t, 200, 12, 11)
	path := filepath.Join(t.TempDir(), "v1.nsgm")
	if err := os.WriteFile(path, version1Record(t), 0o644); err != nil {
		t.Fatal(err)
	}
	queries := testBase(t, 20, 12, 12)
	for _, opts := range []MapOptions{{}, {NoVerify: true}} {
		heap := buildMappedTestNSG(t, base.Clone(), true, true)
		old, err := OpenMappedFile(t, path, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, stage := range []string{"mapped", "inserted"} {
			if stage == "inserted" {
				for _, x := range []*NSG{heap, old} {
					if _, err := x.Insert(queries.Row(0), InsertParams{}); err != nil {
						t.Fatal(err)
					}
				}
			}
			for qi := range queries.Rows {
				q := Query{K: 10, L: 40}
				want := fmt.Sprint(heap.Query(NewSearchContext(), queries.Row(qi), q))
				if got := fmt.Sprint(old.Query(NewSearchContext(), queries.Row(qi), q)); got != want {
					t.Fatalf("%+v %s query %d: %s, built index %s", opts, stage, qi, got, want)
				}
			}
		}
	}
}

// TestMappedCorruptionTable flips every header field, truncates at every
// section boundary, misaligns slab offsets and rots section bytes of an SQ8
// record as the build before CSR wrote it (version 1: fixed-stride
// adjacency, five sections), as written today (csr-sq8, version 2: six
// sections, CSR offsets and edges among them); every mutation must yield a
// FormatError naming the right section, and OpenMappedAt must never serve a
// partially valid index. The legacy-meta case is the record an older build
// wrote with a metadata section (version 1, six sections), which is refused
// at its header flags: it and every mutation of it fail there. The int4 case is a record from before int4 was removed: its
// header carries the retired int4 marker in place of the SQ8 flag, and it
// must be refused at the header, not misread as SQ8 or float32.
func TestMappedCorruptionTable(t *testing.T) {
	base := testBase(t, 200, 12, 11)
	heap := buildMappedTestNSG(t, base, true, true)
	var buf bytes.Buffer
	if err := heap.WriteMapped(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	t.Run("sq8", func(t *testing.T) { testMappedCorruptionTable(t, version1Record(t), mappedSections-1, false) })
	t.Run("csr-sq8", func(t *testing.T) { testMappedCorruptionTable(t, valid, mappedSections, false) })
	t.Run("legacy-meta", func(t *testing.T) { testMappedCorruptionTable(t, legacyRecord(t), mappedSections, true) })
	t.Run("int4", func(t *testing.T) {
		b := bytes.Clone(valid)
		putU32(b, 8, getU32(b, 8)&^nsgFlagQuant|nsgFlagQuant4)
		rewriteHeaderCRC(b)
		path := filepath.Join(t.TempDir(), "int4.nsgm")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, opts := range []MapOptions{{}, {NoVerify: true}} {
			_, err := OpenMappedFile(t, path, opts)
			if err == nil {
				t.Fatalf("%+v: int4 record opened without error", opts)
			}
			var fe *FormatError
			if !errors.As(err, &fe) || fe.Section != SectionHeader {
				t.Fatalf("%+v: got %v, want a header FormatError", opts, err)
			}
		}
	})
}

// testMappedCorruptionTable runs the table on the record valid, which
// populates sections sections. A refused record fails at its header
// unmutated, and so does every mutation of it.
func testMappedCorruptionTable(t *testing.T, valid []byte, sections int, refused bool) {
	if refused {
		path := filepath.Join(t.TempDir(), "refused.nsgm")
		if err := os.WriteFile(path, valid, 0o644); err != nil {
			t.Fatal(err)
		}
		var fe *FormatError
		if _, err := OpenMappedFile(t, path, MapOptions{}); !errors.As(err, &fe) || fe.Section != SectionHeader {
			t.Fatalf("the unmutated record: got %v, want a header FormatError", err)
		}
	}

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
			secs = append(secs, sec{slotSection(valid, i).String(), o, l})
		}
	}
	if len(secs) != sections {
		t.Fatalf("record populates %d sections, want %d", len(secs), sections)
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
		{"nav-out-of-range", func(b []byte) []byte { putU32(b, 24, getU32(b, 12)); rewriteHeaderCRC(b); return b }, SectionHeader},
		{"huge-m", func(b []byte) []byte { putU32(b, 28, 1<<24); rewriteHeaderCRC(b); return b }, SectionHeader},
		{"record-size-misaligned", func(b []byte) []byte { putU64(b, 32, getU64(b, 32)-4); rewriteHeaderCRC(b); return b }, SectionHeader},
		{"record-size-too-big", func(b []byte) []byte { putU64(b, 32, getU64(b, 32)+64); rewriteHeaderCRC(b); return b }, SectionHeader},
		{"header-crc-flip", func(b []byte) []byte { b[headerCRCOffset] ^= 0xff; return b }, SectionHeader},
		{"header-field-flip-no-crc-fix", func(b []byte) []byte { b[12] ^= 0x01; return b }, SectionHeader},
	}
	// Header field 20 is version 1's row stride, a header check, and
	// version 2's edge count, which sizes the adjacency section.
	if getU32(valid, 4) == 1 {
		cases = append(cases, struct {
			name    string
			mutate  func([]byte) []byte
			section Section
		}{"zero-stride", func(b []byte) []byte { putU32(b, 20, 0); rewriteHeaderCRC(b); return b }, SectionHeader})
	} else {
		for name, edges := range map[string]uint32{"zero-edges": 0, "edges-plus-one": getU32(valid, 20) + 1, "huge-edges": 1 << 31} {
			cases = append(cases, struct {
				name    string
				mutate  func([]byte) []byte
				section Section
			}{name, func(b []byte) []byte { putU32(b, 20, edges); rewriteHeaderCRC(b); return b }, -1})
		}
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
		}{fmt.Sprintf("misalign-%s", slotSection(valid, i)), func(b []byte) []byte {
			base := sectionTableStart + i*sectionEntrySize
			putU64(b, base, getU64(b, base)+4)
			rewriteHeaderCRC(b)
			return b
		}, slotSection(valid, i)})
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
			_, err := OpenMappedFile(t, path, MapOptions{})
			if err == nil {
				t.Fatal("corrupt file opened without error")
			}
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v is not a FormatError", err)
			}
			if refused {
				tc.section = SectionHeader
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
	remapOff := int64(getU64(b, sectionTableStart+slices.Index(mappedSlots[nsgMappedVersion][:], SectionRemap)*sectionEntrySize))
	if remapOff == 0 {
		t.Fatal("relaid index should carry a remap section")
	}
	// Duplicate entry 0 into entry 1: still in range, no longer a permutation.
	copy(b[remapOff+4:remapOff+8], b[remapOff:remapOff+4])
	path := filepath.Join(t.TempDir(), "badremap.nsgm")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenMappedFile(t, path, MapOptions{NoVerify: true})
	var fe *FormatError
	if !errors.As(err, &fe) || fe.Section != SectionRemap {
		t.Fatalf("NoVerify open of broken remap: %v, want remap FormatError", err)
	}
}

// TestMappedOffsetsValidatedUnderNoVerify: the CSR offsets are checked on
// every open, NoVerify too, because a row bound outside the edge slab turns
// into an out-of-bounds access on the first search that expands it. The
// check reads the offsets once, which the open's maximum degree needs
// anyway.
func TestMappedOffsetsValidatedUnderNoVerify(t *testing.T) {
	base := testBase(t, 200, 12, 12)
	heap := buildMappedTestNSG(t, base, true, false)
	var buf bytes.Buffer
	if err := heap.WriteMapped(&buf); err != nil {
		t.Fatal(err)
	}
	offsetsAt := int64(getU64(buf.Bytes(), sectionTableStart+slices.Index(mappedSlots[nsgMappedVersion][:], SectionOffsets)*sectionEntrySize))
	// Each row bound is moved past the next one (the last past the slab).
	for name, entry := range map[string]int{"first": 0, "middle": 100, "last": 200} {
		t.Run(name, func(t *testing.T) {
			b := bytes.Clone(buf.Bytes())
			at := int(offsetsAt) + 4*entry
			next := getU32(b, at)
			if entry < 200 {
				next = getU32(b, at+4)
			}
			putU32(b, at, next+1)
			path := filepath.Join(t.TempDir(), "badoffsets.nsgm")
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := OpenMappedFile(t, path, MapOptions{NoVerify: true})
			var fe *FormatError
			if !errors.As(err, &fe) || fe.Section != SectionOffsets {
				t.Fatalf("NoVerify open of a moved row bound: %v, want an offsets FormatError", err)
			}
		})
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
	legacy := legacyRecord(f)
	f.Add(legacy)
	f.Add(legacy[:len(legacy)-mappedAlign])
	f.Add(version1Record(f))
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
			idx, err := OpenMappedFile(t, path, opts)
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
		}
	})
}
