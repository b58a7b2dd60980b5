package nsg

// File-format compatibility: every index writes the NSGD stream bundle and
// the NSMS mapped container, and the two one-index layouts written before
// that (the NSGB bundle and the top-level NSGM record) still load and open.
// No writer of the old layouts remains, so the helpers below rebuild them
// from a one-shard index out of the pieces they were made of.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chunkio"
	"repro/internal/dataset"
)

// writeLegacyBundle writes x, a one-shard index, as an NSGB bundle: the
// magic, row count and dimension, the vectors in id order, then the
// shard's NSG record carrying the metadata store.
func writeLegacyBundle(t testing.TB, x *Index, path string) {
	t.Helper()
	rec := x.s.Shard(0)
	rec.Meta = x.s.Meta
	defer func() { rec.Meta = nil }()
	var buf bytes.Buffer
	hdr := make([]byte, 12)
	binary.LittleEndian.PutUint32(hdr[0:], 0x4e534742) // "NSGB"
	binary.LittleEndian.PutUint32(hdr[4:], uint32(x.Len()))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(x.Dim()))
	buf.Write(hdr)
	if err := chunkio.WriteRows(&buf, x.Len(), x.Vector); err != nil {
		t.Fatal(err)
	}
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeLegacyMapped writes x, a one-shard index, as a top-level NSGM
// record: the shard's aligned record carrying the metadata store.
func writeLegacyMapped(t testing.TB, x *Index, path string) {
	t.Helper()
	rec := x.s.Shard(0)
	rec.Meta = x.s.Meta
	defer func() { rec.Meta = nil }()
	if err := rec.SaveMapped(path); err != nil {
		t.Fatal(err)
	}
}

// legacyPair builds a one-shard index with metadata (float32 or SQ8) and
// writes it in both legacy layouts, returning the index and the two paths.
func legacyPair(t *testing.T, ds dataset.Dataset, q QuantMode) (x *Index, bundle, record string) {
	t.Helper()
	x = buildMappedPublicIndex(t, ds, q)
	if err := x.SetMetadata(parityMetadata(x.Len())); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bundle, record = filepath.Join(dir, "idx.nsgb"), filepath.Join(dir, "idx.nsgm")
	writeLegacyBundle(t, x, bundle)
	writeLegacyMapped(t, x, record)
	return x, bundle, record
}

// TestLegacyFilesStillOpen: an NSGB bundle loads and a top-level NSGM
// record opens as a one-shard index with its metadata store, its degree
// cap and quantization mode (the only options those files kept), and the
// answers of the index that wrote them, plain and filtered, distance bits
// included. The formats that replaced them cost at most 256 bytes more.
func TestLegacyFilesStillOpen(t *testing.T) {
	ds := shardedTestData(t, 800, 20)
	for _, q := range []QuantMode{QuantNone, QuantSQ8} {
		t.Run(q.String(), func(t *testing.T) {
			x, bundle, record := legacyPair(t, ds, q)
			defer x.Close()
			loaded, err := Load(bundle)
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()
			mapped, err := OpenMapped(record, MapOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer mapped.Close()
			want := DefaultOptions()
			want.Quantize, want.Seed = q, 0
			for name, got := range map[string]*Index{"NSGB": loaded, "NSGM": mapped} {
				if got.Shards() != 1 || got.opts != want {
					t.Fatalf("%s: %d shards, options %+v; want 1, %+v", name, got.Shards(), got.opts, want)
				}
				assertSameAnswers(t, ds, name, x, got)
			}
			dir := t.TempDir()
			for _, f := range []struct {
				save   func(string) error
				legacy string
			}{{x.Save, bundle}, {x.SaveMapped, record}} {
				path := filepath.Join(dir, "now")
				if err := f.save(path); err != nil {
					t.Fatal(err)
				}
				now, old := fileSize(t, path), fileSize(t, f.legacy)
				if now > old+256 {
					t.Errorf("one-shard file of %d bytes, %d more than its legacy layout's %d", now, now-old, old)
				}
			}
		})
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

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestEmptyIDMapNeedsOneShard: an empty id map means the identity, which
// only the only shard of an index can hold. A multi-shard bundle or
// container whose first shard stores one is refused (as corrupt, for the
// container), not served over a wrong partition.
func TestEmptyIDMapNeedsOneShard(t *testing.T) {
	ds := shardedTestData(t, 600, 1)
	idx := buildShardedIndex(t, ds, 2)
	defer idx.Close()
	dir := t.TempDir()
	stream, mapped := filepath.Join(dir, "idx.nsgd"), filepath.Join(dir, "idx.nsms")
	if err := idx.Save(stream); err != nil {
		t.Fatal(err)
	}
	if err := idx.SaveMapped(mapped); err != nil {
		t.Fatal(err)
	}
	// Stream: shard 0's size word follows the 36-byte header, the vectors
	// and the 12-byte shard header; drop its ids and store size 0.
	b, err := os.ReadFile(stream)
	if err != nil {
		t.Fatal(err)
	}
	at := 36 + 4*idx.Len()*idx.Dim() + 12
	size := int(binary.LittleEndian.Uint32(b[at:]))
	b = append(append(b[:at:at], 0, 0, 0, 0), b[at+4+4*size:]...)
	if err := os.WriteFile(stream, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := Load(stream); err == nil {
		got.Close()
		t.Fatal("Load served a two-shard bundle with an empty id map")
	}
	// Container: shard 0's id map length is table bytes 8..15; the table
	// checksum after both 40-byte entries is recomputed to reach the check.
	if b, err = os.ReadFile(mapped); err != nil {
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
// no metadata row, and both writers pad the store with missing rows up to
// Len(), so the file reopens, the store covers every row, and the added
// points fail every filter — on one shard and two, stream and mapped.
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
		dir := t.TempDir()
		stream, mapped := filepath.Join(dir, "idx.nsgd"), filepath.Join(dir, "idx.nsms")
		if err := idx.Save(stream); err != nil {
			t.Fatal(err)
		}
		if err := idx.SaveMapped(mapped); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(stream)
		if err != nil {
			t.Fatalf("%d shards: Load: %v", shards, err)
		}
		defer loaded.Close()
		opened, err := OpenMapped(mapped, MapOptions{})
		if err != nil {
			t.Fatalf("%d shards: OpenMapped: %v", shards, err)
		}
		defer opened.Close()
		for name, x := range map[string]*Index{"Load": loaded, "OpenMapped": opened} {
			if rows := x.Metadata().Rows(); rows != x.Len() || rows != ds.Base.Rows {
				t.Fatalf("%d shards, %s: store of %d rows, index of %d", shards, name, rows, x.Len())
			}
			f, err := x.CompileFilter(In("category", "c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9"))
			if err != nil {
				t.Fatal(err)
			}
			if f.Count() != n {
				t.Fatalf("%d shards, %s: %d rows pass a filter every described row passes, want %d", shards, name, f.Count(), n)
			}
		}
	}
}

// TestOptionsSurviveRestart: every file keeps GraphK, BuildL, MaxDegree
// and SearchL, so a loaded index, and an opened one promoted to the heap,
// Compact exactly as the index that was saved does — the rebuild runs with
// the saved options — and search at the saved SearchL.
func TestOptionsSurviveRestart(t *testing.T) {
	ds := shardedTestData(t, 800, 10)
	opts := Options{GraphK: 13, BuildL: 37, MaxDegree: 21, SearchL: 47} // Seed 0, NN-Descent
	orig, err := BuildFromFlat(append([]float32(nil), ds.Base.Data...), ds.Base.Dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	dir := t.TempDir()
	stream, mapped := filepath.Join(dir, "idx.nsgd"), filepath.Join(dir, "idx.nsms")
	if err := orig.Save(stream); err != nil {
		t.Fatal(err)
	}
	if err := orig.SaveMapped(mapped); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(stream)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	opened, err := OpenMapped(mapped, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	if err := opened.PromoteToHeap(); err != nil {
		t.Fatal(err)
	}
	for _, x := range []*Index{orig, loaded, opened} {
		for id := int32(0); id < 80; id += 3 {
			if err := x.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := x.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	for name, x := range map[string]*Index{"Load": loaded, "OpenMapped": opened} {
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

// TestShardedMappedKeepsMetadata: a two-shard SaveMapped carries its
// metadata store, so the opened index compiles filters and answers them as
// the heap index does, and its Save writes the heap index's bytes.
func TestShardedMappedKeepsMetadata(t *testing.T) {
	ds := shardedTestData(t, 1000, 15)
	heap := buildShardedIndex(t, ds, 2)
	defer heap.Close()
	if err := heap.SetMetadata(parityMetadata(heap.Len())); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "idx.nsms")
	if err := heap.SaveMapped(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMapped(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	assertSameAnswers(t, ds, "OpenMapped", heap, mapped)
	hp, mp := filepath.Join(dir, "heap.nsgd"), filepath.Join(dir, "mapped.nsgd")
	if err := heap.Save(hp); err != nil {
		t.Fatal(err)
	}
	if err := mapped.Save(mp); err != nil {
		t.Fatal(err)
	}
	hb, _ := os.ReadFile(hp)
	mb, _ := os.ReadFile(mp)
	if !bytes.Equal(hb, mb) {
		t.Fatal("Save of the mapped index differs from Save of the heap index")
	}
}
