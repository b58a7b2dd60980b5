package nsg

// File-format compatibility: every index writes the NSMS container, byte
// for byte as pinned below; the version-1 containers older builds wrote
// still load and open, and their top-level NSGM records are refused with
// an error that names the layout.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// The files under testdata/legacy were written by the tree of commit
// f02bd49 (testdata/legacy/gen.go), the last whose Index wrote the
// one-index layout: a top-level NSGM record with a metadata store,
// float32 and SQ8, and a 3-shard SQ8 index's version-1 NSMS container. No
// writer of these bytes remains, so they are what holds the reader to
// files an older build really wrote.
func legacyPath(name string) string { return filepath.Join("testdata", "legacy", name) }

// The fixtures' shape: 240 rows of 16 dimensions.
const legacyRows, legacyDim = 240, 16

// legacyFixtures lists each fixture. One that opens comes with the options
// a reader must restore and the digest of the writing index's answers (see
// legacyAnswers); a refused one, a one-index file, is a rejection row.
var legacyFixtures = []struct {
	name, file string
	refused    bool
	shards     int
	opts       Options
	answers    uint64
}{
	{name: "float32", file: "one_f32.nsgm", refused: true},
	{name: "sq8", file: "one_sq8.nsgm", refused: true},
	{"sharded", "three.nsms", false, 3, Options{GraphK: 10, BuildL: 30, MaxDegree: 12, SearchL: 40, Quantize: QuantSQ8}, 0xa58afc9200459117},
}

// requireOneIndexRefused fails t unless err is the FormatError that
// refuses a top-level NSGM record, naming the layout and the last commit
// that reads it.
func requireOneIndexRefused(t *testing.T, what string, x *Index, err error) {
	t.Helper()
	if x != nil {
		x.Close()
	}
	if !IsCorrupt(err) || !strings.Contains(err.Error(), "NSGM is a one-index layout") || !strings.Contains(err.Error(), "179f053") {
		t.Fatalf("%s: got %v, want the FormatError that refuses a one-index NSGM file", what, err)
	}
}

// legacyAnswers digests x's answers to the fixture queries at k = 10,
// l = 40: FNV-64a over each answer's length, then every id and distance
// bit pattern, little-endian, as gen.go prints it for an index without
// metadata.
func legacyAnswers(t *testing.T, x *Index) uint64 {
	t.Helper()
	qs, err := dataset.LoadFvecsFile(legacyPath("queries.fvecs"))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	put := func(ids []int32, dists []float32) {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(ids)))
		for i := range ids {
			b = binary.LittleEndian.AppendUint32(b, uint32(ids[i]))
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(dists[i]))
		}
		h.Write(b)
	}
	for i := 0; i < qs.Rows; i++ {
		put(x.SearchWithPool(qs.Row(i), 10, 40))
	}
	return h.Sum64()
}

// TestLegacyFilesStillOpen: every fixture this build reads loads and
// opens with its shard count, the options it kept and the answers of the
// index that wrote it, distance bits included, and takes an Add without
// changing the fixture's bytes. The one-index fixtures are
// rejection rows: Load and OpenMapped refuse them with an error that names
// the layout.
func TestLegacyFilesStillOpen(t *testing.T) {
	for _, fx := range legacyFixtures {
		t.Run(fx.name, func(t *testing.T) {
			if fx.refused {
				x, err := Load(legacyPath(fx.file))
				requireOneIndexRefused(t, "Load", x, err)
				x, err = OpenMapped(legacyPath(fx.file), MapOptions{NoVerify: true})
				requireOneIndexRefused(t, "OpenMapped", x, err)
				return
			}
			file, err := os.ReadFile(legacyPath(fx.file))
			if err != nil {
				t.Fatal(err)
			}
			for _, open := range reopeners {
				x, err := open.open(legacyPath(fx.file))
				if err != nil {
					t.Fatalf("%s %s: %v", open.name, fx.file, err)
				}
				defer x.Close()
				if x.Shards() != fx.shards || x.opts != fx.opts || x.Len() != legacyRows || x.Dim() != legacyDim || x.Metadata() != nil {
					t.Fatalf("%s: %d shards, %dx%d, options %+v, metadata %v; want %d, %dx%d, %+v, none",
						open.name, x.Shards(), x.Len(), x.Dim(), x.opts, x.Metadata(), fx.shards, legacyRows, legacyDim, fx.opts)
				}
				if got := legacyAnswers(t, x); got != fx.answers {
					t.Fatalf("%s: answers digest %#016x, want %#016x", open.name, got, fx.answers)
				}
				vec := make([]float32, legacyDim)
				id, err := x.Add(vec)
				if err != nil {
					t.Fatalf("%s: Add: %v", open.name, err)
				}
				if ids, dists := x.SearchWithPool(vec, 1, 40); len(ids) != 1 || ids[0] != id || dists[0] != 0 {
					t.Fatalf("%s: the added row %d does not find itself: %v %v", open.name, id, ids, dists)
				}
			}
			if now, err := os.ReadFile(legacyPath(fx.file)); err != nil || !bytes.Equal(now, file) {
				t.Fatalf("an Add changed the fixture %s (%v)", fx.file, err)
			}
		})
	}
}

// TestLegacyMetadataCorruption: a one-index file is refused whole, with a
// flipped byte inside its metadata store as intact: Load and OpenMapped,
// with and without the verification pass, fail with the error that names
// the layout, before any section is read.
func TestLegacyMetadataCorruption(t *testing.T) {
	b, err := os.ReadFile(legacyPath("one_f32.nsgm"))
	if err != nil {
		t.Fatal(err)
	}
	// The metadata entry is the sixth of the header's 24-byte section slots
	// starting at byte 40: offset, then length.
	off := binary.LittleEndian.Uint64(b[40+5*24:])
	size := binary.LittleEndian.Uint64(b[40+5*24+8:])
	if size == 0 {
		t.Fatal("fixture record carries no metadata section")
	}
	b[off+size/2] ^= 0xff
	path := filepath.Join(t.TempDir(), "bad.nsgm")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	x, err := Load(path)
	requireOneIndexRefused(t, "Load", x, err)
	for _, opts := range []MapOptions{{}, {NoVerify: true}} {
		x, err := OpenMapped(path, opts)
		requireOneIndexRefused(t, fmt.Sprintf("OpenMapped %+v", opts), x, err)
	}
}

// TestShardRecordWithMetadataIsRejected: a container keeps its metadata
// store in its own section, and no writer ever put one in a shard record.
// A one-shard NSMS whose record is the NSGM file's metadata-carrying one is
// refused at that record's flags, not served with the store dropped.
func TestShardRecordWithMetadataIsRejected(t *testing.T) {
	x := buildMappedPublicIndex(t, shardedTestData(t, 300, 1), QuantNone)
	mapped := filepath.Join(t.TempDir(), "idx.nsms")
	if err := x.Save(mapped); err != nil {
		t.Fatal(err)
	}
	// The one shard's table entry (64 bytes in) holds its id
	// map's offset and length, then its record's; the record is the file's
	// tail. Swap in the NSGM record and fix its length, the file size and
	// the table checksum after the entry.
	now, err := os.ReadFile(mapped)
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(legacyPath("one_f32.nsgm"))
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	recOff := le.Uint64(now[64+16:])
	now = append(now[:recOff:recOff], old...)
	le.PutUint64(now[64+24:], uint64(len(old)))
	le.PutUint64(now[24:], uint64(len(now)))
	le.PutUint32(now[64+40:], crc32.ChecksumIEEE(now[:64+40]))
	if err := os.WriteFile(mapped, now, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := OpenMapped(mapped, MapOptions{}); err == nil || !IsCorrupt(err) || !strings.Contains(err.Error(), "flags") {
		if got != nil {
			got.Close()
		}
		t.Fatalf("OpenMapped of a container whose shard record carries metadata: got %v, want a corrupt record flags error", err)
	}
}

// assertSameAnswers holds got to want's answers, plain and under a 10%
// filter on parityMetadata's category, ids and distance bits alike.
func assertSameAnswers(t *testing.T, ds dataset.Dataset, name string, want, got *Index) {
	t.Helper()
	fw, err := want.CompileFilter(Eq("category", "c3"))
	if err != nil {
		t.Fatal(err)
	}
	fg, err := got.CompileFilter(Eq("category", "c3"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		q := ds.Queries.Row(qi)
		if a, b := searchSig(want.SearchWithPool(q, 10, 60)), searchSig(got.SearchWithPool(q, 10, 60)); a != b {
			t.Fatalf("%s: query %d answers %s, want %s", name, qi, b, a)
		}
		if a, b := searchSig(want.SearchFilteredWithPool(q, 10, 60, fw)), searchSig(got.SearchFilteredWithPool(q, 10, 60, fg)); a != b {
			t.Fatalf("%s: filtered query %d answers %s, want %s", name, qi, b, a)
		}
	}
}

// TestEmptyIDMapNeedsOneShard: an empty id map means the identity, which
// only the only shard of an index can hold. A multi-shard container whose
// first shard stores one is refused as corrupt, not served over a wrong
// partition.
func TestEmptyIDMapNeedsOneShard(t *testing.T) {
	ds := shardedTestData(t, 600, 1)
	idx := buildShardedIndex(t, ds, 2)
	defer idx.Close()
	mapped := filepath.Join(t.TempDir(), "idx.nsms")
	if err := idx.Save(mapped); err != nil {
		t.Fatal(err)
	}
	// Shard 0's id map length is table bytes 8..15; the table checksum
	// after both 40-byte entries is recomputed to reach the check.
	b, err := os.ReadFile(mapped)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(b[64+8:], 0)
	crcAt := 64 + 2*40
	binary.LittleEndian.PutUint32(b[crcAt:], crc32.ChecksumIEEE(b[:crcAt]))
	if err := os.WriteFile(mapped, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := OpenMapped(mapped, MapOptions{}); err == nil || !IsCorrupt(err) {
		if got != nil {
			got.Close()
		}
		t.Fatalf("OpenMapped of a two-shard container with an empty id map: got %v, want a corruption error", err)
	}
}

// TestSavePadsMetadata: points added with plain Add after SetMetadata have
// no metadata row, and Save pads the store with missing rows up to Len(),
// so the file reopens, the store covers every row, and the added points
// fail every filter — on one shard and two, loaded and mapped.
func TestSavePadsMetadata(t *testing.T) {
	ds := shardedTestData(t, 505, 1)
	const n = 500
	for _, shards := range []int{1, 2} {
		opts := DefaultShardedOptions(shards)
		opts.Shard.ExactKNN = true
		idx, err := BuildShardedFromFlat(append([]float32(nil), ds.Base.Data[:n*ds.Base.Dim]...), ds.Base.Dim, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer idx.Close()
		if err := idx.SetMetadata(parityMetadata(n)); err != nil {
			t.Fatal(err)
		}
		for i := n; i < ds.Base.Rows; i++ {
			if _, err := idx.Add(ds.Base.Row(i)); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(t.TempDir(), "idx.nsg")
		if err := idx.Save(path); err != nil {
			t.Fatal(err)
		}
		for _, open := range reopeners {
			x, err := open.open(path)
			if err != nil {
				t.Fatalf("%d shards: %s: %v", shards, open.name, err)
			}
			defer x.Close()
			if rows := x.Metadata().Rows(); rows != x.Len() || rows != ds.Base.Rows {
				t.Fatalf("%d shards, %s: store of %d rows, index of %d", shards, open.name, rows, x.Len())
			}
			f, err := x.CompileFilter(In("category", "c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9"))
			if err != nil {
				t.Fatal(err)
			}
			if f.Count() != n {
				t.Fatalf("%d shards, %s: %d rows pass a filter every described row passes, want %d", shards, open.name, f.Count(), n)
			}
		}
	}
}

// TestOptionsSurviveRestart: every file keeps GraphK, BuildL, MaxDegree
// and SearchL, so a loaded index and an opened one Compact exactly as the
// index that was saved does — the rebuild runs with the saved options —
// and search at the saved SearchL.
func TestOptionsSurviveRestart(t *testing.T) {
	ds := shardedTestData(t, 800, 10)
	opts := Options{GraphK: 13, BuildL: 37, MaxDegree: 21, SearchL: 47} // Seed 0, NN-Descent
	orig, err := BuildFromFlat(append([]float32(nil), ds.Base.Data...), ds.Base.Dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	path := filepath.Join(t.TempDir(), "idx.nsg")
	if err := orig.Save(path); err != nil {
		t.Fatal(err)
	}
	reopened := map[string]*Index{}
	all := []*Index{orig}
	for _, open := range reopeners {
		x, err := open.open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer x.Close()
		reopened[open.name] = x
		all = append(all, x)
	}
	for _, x := range all {
		for id := int32(0); id < 80; id += 3 {
			if err := x.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := x.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	for name, x := range reopened {
		if x.opts != orig.opts {
			t.Fatalf("%s: options %+v, want %+v", name, x.opts, orig.opts)
		}
		if a, b := orig.Stats(), x.Stats(); a.AvgDegree != b.AvgDegree || a.MaxDegree != b.MaxDegree {
			t.Fatalf("%s: Compact rebuilt degree %v/%d, the saved index %v/%d", name, b.AvgDegree, b.MaxDegree, a.AvgDegree, a.MaxDegree)
		}
		for qi := 0; qi < ds.Queries.Rows; qi++ {
			q := ds.Queries.Row(qi)
			if a, b := searchSig(orig.Search(q, 10)), searchSig(x.Search(q, 10)); a != b {
				t.Fatalf("%s: after Compact, query %d answers %s, want %s", name, qi, b, a)
			}
		}
	}
}

// TestShardedMappedKeepsMetadata: a two-shard Save carries its metadata
// store, so the opened index compiles filters and answers them as the heap
// index does, and its Save writes the file it was opened from.
func TestShardedMappedKeepsMetadata(t *testing.T) {
	ds := shardedTestData(t, 1000, 15)
	heap := buildShardedIndex(t, ds, 2)
	defer heap.Close()
	if err := heap.SetMetadata(parityMetadata(heap.Len())); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "idx.nsg")
	if err := heap.Save(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMapped(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	assertSameAnswers(t, ds, "OpenMapped", heap, mapped)
	mp := filepath.Join(dir, "mapped.nsg")
	if err := mapped.Save(mp); err != nil {
		t.Fatal(err)
	}
	hb, _ := os.ReadFile(path)
	mb, _ := os.ReadFile(mp)
	if !bytes.Equal(hb, mb) {
		t.Fatal("Save of the mapped index differs from Save of the heap index")
	}
}

// saveGolden holds FNV-64a digests of the bytes Save writes for one fixed
// build per {1, 3 shards} x {float32, SQ8} x {no metadata, metadata};
// SaveMapped, the older name, writes the same bytes. The build uses the
// exact kNN graph, so the bytes depend on neither scheduling nor the kernel
// dispatch; a writer change that moves one byte of the layout moves a
// digest.
var saveGolden = map[string]uint64{
	"1/float32/meta":  0x417092d2521674c2,
	"1/float32/plain": 0xf4d4437eafc2710d,
	"1/sq8/meta":      0x62796045bd9fe12a,
	"1/sq8/plain":     0x68216d2f3d133035,
	"3/float32/meta":  0xaeef47ad8e5a0e9c,
	"3/float32/plain": 0x48f04149711ac1bb,
	"3/sq8/meta":      0x20869251c2f62d27,
	"3/sq8/plain":     0x049e581967434975,
}

func TestSaveBytesGolden(t *testing.T) {
	ds := shardedTestData(t, 600, 1)
	dir := t.TempDir()
	got := map[string]uint64{}
	for _, shards := range []int{1, 3} {
		for _, q := range []QuantMode{QuantNone, QuantSQ8} {
			opts := DefaultShardedOptions(shards)
			opts.Shard.ExactKNN, opts.Shard.Seed, opts.Shard.Quantize = true, 3, q
			x, err := BuildShardedFromFlat(append([]float32(nil), ds.Base.Data...), ds.Base.Dim, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, md := range []string{"plain", "meta"} {
				if md == "meta" {
					if err := x.SetMetadata(parityMetadata(x.Len())); err != nil {
						t.Fatal(err)
					}
				}
				name := fmt.Sprintf("%d/%s/%s", shards, q, md)
				var files [2][]byte
				for i, save := range []func(string) error{x.Save, x.SaveMapped} {
					path := filepath.Join(dir, fmt.Sprint(i))
					if err := save(path); err != nil {
						t.Fatal(err)
					}
					if files[i], err = os.ReadFile(path); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(files[0], files[1]) {
					t.Errorf("%q: Save wrote %d bytes, SaveMapped %d different ones", name, len(files[0]), len(files[1]))
				}
				h := fnv.New64a()
				h.Write(files[0])
				got[name] = h.Sum64()
			}
			x.Close()
		}
	}
	for name, sum := range got {
		if want, ok := saveGolden[name]; !ok || sum != want {
			t.Errorf("%q: %#016x, want %#016x", name, sum, want)
		}
	}
	if len(got) != len(saveGolden) {
		t.Errorf("%d digests computed, %d recorded", len(got), len(saveGolden))
	}
}
