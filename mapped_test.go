package nsg

// Public-API tests for disk-resident serving: mapped/heap search parity
// across index shapes (float32, SQ8+rerank, tombstoned, sharded), writes
// that copy out of the mapping and leave the file as it was, the
// crash-safety of the atomic save path, and fuzz targets over the bundle
// loader and the mapped open.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/mstore"
	"repro/internal/vecmath"
)

func buildMappedPublicIndex(t *testing.T, ds dataset.Dataset, quantize QuantMode) *Index {
	t.Helper()
	opts := DefaultOptions()
	opts.ExactKNN = true
	opts.Seed = 11
	opts.Quantize = quantize
	data := make([]float32, len(ds.Base.Data))
	copy(data, ds.Base.Data)
	idx, err := BuildFromFlat(data, ds.Base.Dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// searchSig reduces one search to a comparable string of ids and exact
// distance bit patterns, so parity means byte-identical results.
func searchSig(ids []int32, dists []float32) string {
	var sb strings.Builder
	for i := range ids {
		fmt.Fprintf(&sb, "%d:%08x ", ids[i], math.Float32bits(dists[i]))
	}
	return sb.String()
}

// TestMappedParityPublic: OpenMapped must serve byte-identical results to
// the heap index it was saved from — ids, distance bits, and traversal hop
// counts — for the float32 and SQ8+rerank shapes. A file from before int4
// was removed carries the retired int4 marker in place of the SQ8 flag in
// its records; it must be refused as corrupt, not misread.
func TestMappedParityPublic(t *testing.T) {
	ds := shardedTestData(t, 2000, 30)
	dir, sq8Path := t.TempDir(), ""
	for _, quantize := range []QuantMode{QuantNone, QuantSQ8} {
		t.Run(quantize.String(), func(t *testing.T) {
			heap := buildMappedPublicIndex(t, ds, quantize)
			path := filepath.Join(dir, quantize.String()+".nsgm")
			if err := heap.SaveMapped(path); err != nil {
				t.Fatal(err)
			}
			if quantize == QuantSQ8 {
				sq8Path = path
			}
			t.Run("mmap", func(t *testing.T) {
				mapped, err := OpenMapped(path, MapOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer mapped.Close()
				if mapped.Len() != heap.Len() || mapped.Dim() != heap.Dim() || mapped.QuantMode() != heap.QuantMode() {
					t.Fatalf("shape mismatch: len %d/%d dim %d/%d quant %v/%v",
						mapped.Len(), heap.Len(), mapped.Dim(), heap.Dim(), mapped.QuantMode(), heap.QuantMode())
				}
				for qi := 0; qi < ds.Queries.Rows; qi++ {
					q := ds.Queries.Row(qi)
					hi, hd, hs := heap.SearchWithStats(q, 10, 60)
					mi, md, ms := mapped.SearchWithStats(q, 10, 60)
					if searchSig(hi, hd) != searchSig(mi, md) {
						t.Fatalf("query %d: results diverge\nheap   %s\nmapped %s",
							qi, searchSig(hi, hd), searchSig(mi, md))
					}
					if hs.Hops != ms.Hops || hs.DistanceComputations != ms.DistanceComputations {
						t.Fatalf("query %d: stats diverge: heap %+v mapped %+v", qi, hs, ms)
					}
				}
				// Vector access must read the mapped slab.
				for _, id := range []int{0, 7, heap.Len() - 1} {
					hv, mv := heap.Vector(id), mapped.Vector(id)
					for j := range hv {
						if math.Float32bits(hv[j]) != math.Float32bits(mv[j]) {
							t.Fatalf("vector %d diverges at dim %d", id, j)
						}
					}
				}
			})
		})
	}
	t.Run("int4", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "idx.nsgm")
		if err := os.WriteFile(path, int4Record(t, sq8Path), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Run("mmap", func(t *testing.T) {
			mapped, err := OpenMapped(path, MapOptions{})
			if err == nil {
				mapped.Close()
				t.Fatal("OpenMapped accepted an int4 file")
			}
			if !IsCorrupt(err) {
				t.Fatalf("OpenMapped of an int4 file: got %v, want a corruption error", err)
			}
		})
	})
}

// TestMappedTombstoneParity: Delete is a heap-side tombstone set, so it
// leaves the mapped slabs alone; filtered results must match a heap index
// with the same tombstones.
func TestMappedTombstoneParity(t *testing.T) {
	ds := shardedTestData(t, 1200, 20)
	heap := buildMappedPublicIndex(t, ds, QuantNone)
	path := filepath.Join(t.TempDir(), "idx.nsgm")
	if err := heap.SaveMapped(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMapped(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	// Tombstone the top result of each of the first few queries on both.
	for qi := 0; qi < 5; qi++ {
		ids, _ := heap.SearchWithPool(ds.Queries.Row(qi), 1, 60)
		if err := heap.Delete(ids[0]); err != nil {
			t.Fatal(err)
		}
		if err := mapped.Delete(ids[0]); err != nil {
			t.Fatalf("Delete on mapped index: %v", err)
		}
	}
	if mapped.DeletedCount() != heap.DeletedCount() {
		t.Fatalf("deleted count %d != %d", mapped.DeletedCount(), heap.DeletedCount())
	}
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		q := ds.Queries.Row(qi)
		hi, hd := heap.SearchWithPool(q, 10, 60)
		mi, md := mapped.SearchWithPool(q, 10, 60)
		if searchSig(hi, hd) != searchSig(mi, md) {
			t.Fatalf("query %d: tombstoned results diverge", qi)
		}
		for _, id := range mi {
			if mapped.Deleted(id) {
				t.Fatalf("query %d returned tombstoned id %d", qi, id)
			}
		}
	}
}

// TestMappedSaveMatchesHeap: Save of a mapped index streams its mapped
// slabs and writes the bytes Save of the heap index it was saved from
// writes, float and SQ8.
func TestMappedSaveMatchesHeap(t *testing.T) {
	ds := shardedTestData(t, 600, 12)
	for _, quantize := range []QuantMode{QuantNone, QuantSQ8} {
		heap := buildMappedPublicIndex(t, ds, quantize)
		dir := t.TempDir()
		mappedPath := filepath.Join(dir, "idx.nsgm")
		if err := heap.SaveMapped(mappedPath); err != nil {
			t.Fatal(err)
		}
		mapped, err := OpenMapped(mappedPath, MapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer mapped.Close()
		save := func(x *Index, name string) []byte {
			path := filepath.Join(dir, name)
			if err := x.Save(path); err != nil {
				t.Fatalf("%v %s: %v", quantize, name, err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		if hb, mb := save(heap, "heap.nsg"), save(mapped, "mapped.nsg"); !bytes.Equal(hb, mb) {
			t.Fatalf("%v: mapped Save wrote %d bytes unlike the heap index's %d", quantize, len(mb), len(hb))
		}
	}
}

// TestShardedMappedRoundTrip: the sharded container must round-trip the
// build options and serve byte-identical fan-out searches, for plain and
// quantized shards; Save of the mapped index must write the heap index's
// bytes, and the mapped index then takes an Add. A container from before
// int4 was removed sets the
// reserved int4 option bit; it must be refused as corrupt, not misread.
func TestShardedMappedRoundTrip(t *testing.T) {
	ds := shardedTestData(t, 2000, 25)
	for _, quantize := range []QuantMode{QuantNone, QuantSQ8} {
		t.Run(quantize.String(), func(t *testing.T) {
			opts := DefaultShardedOptions(3)
			opts.Shard.ExactKNN = true
			opts.Shard.Seed = 7
			opts.Shard.Quantize = quantize
			data := make([]float32, len(ds.Base.Data))
			copy(data, ds.Base.Data)
			heap, err := BuildShardedFromFlat(data, ds.Base.Dim, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer heap.Close()
			path := filepath.Join(t.TempDir(), "idx.nsms")
			if err := heap.SaveMapped(path); err != nil {
				t.Fatal(err)
			}
			t.Run("mmap", func(t *testing.T) {
				mapped, err := OpenMapped(path, MapOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer mapped.Close()
				if mapped.Shards() != heap.Shards() || mapped.Len() != heap.Len() ||
					mapped.Dim() != heap.Dim() || mapped.QuantMode() != heap.QuantMode() {
					t.Fatal("shape or options did not round-trip")
				}
				if mapped.opts.GraphK != heap.opts.GraphK ||
					mapped.opts.MaxDegree != heap.opts.MaxDegree ||
					mapped.opts.SearchL != heap.opts.SearchL {
					t.Fatalf("build options did not round-trip: %+v vs %+v", mapped.opts, heap.opts)
				}
				for qi := 0; qi < ds.Queries.Rows; qi++ {
					q := ds.Queries.Row(qi)
					hi, hd := heap.SearchWithPool(q, 10, 60)
					mi, md := mapped.SearchWithPool(q, 10, 60)
					if searchSig(hi, hd) != searchSig(mi, md) {
						t.Fatalf("query %d: sharded results diverge", qi)
					}
				}
				for _, id := range []int{0, 42, heap.Len() - 1} {
					hv, mv := heap.Vector(id), mapped.Vector(id)
					if len(mv) != len(hv) {
						t.Fatalf("vector %d length mismatch", id)
					}
					for j := range hv {
						if math.Float32bits(hv[j]) != math.Float32bits(mv[j]) {
							t.Fatalf("vector %d diverges at dim %d", id, j)
						}
					}
				}
				// Save of the mapped index writes the heap index's bytes.
				heapPath := filepath.Join(t.TempDir(), "heap.nsg")
				mappedPath := filepath.Join(t.TempDir(), "mapped.nsg")
				if err := heap.Save(heapPath); err != nil {
					t.Fatal(err)
				}
				if err := mapped.Save(mappedPath); err != nil {
					t.Fatalf("sharded Save of a mapped index: %v", err)
				}
				hb, err := os.ReadFile(heapPath)
				if err != nil {
					t.Fatal(err)
				}
				mb, err := os.ReadFile(mappedPath)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(hb, mb) {
					t.Fatal("Save of the mapped sharded index differs from Save of the heap index")
				}
				if err := mapped.EnableLiveUpdates(LiveOptions{}); err != nil {
					t.Fatalf("sharded EnableLiveUpdates: %v", err)
				}
				id, err := mapped.Add(ds.Queries.Row(0))
				if err != nil {
					t.Fatalf("sharded Add: %v", err)
				}
				if ids, _ := mapped.SearchWithPool(ds.Queries.Row(0), 1, 60); len(ids) != 1 || ids[0] != id {
					t.Fatalf("the added row %d is not its own nearest neighbor: %v", id, ids)
				}
			})
		})
	}
	t.Run("int4", func(t *testing.T) {
		opts := DefaultShardedOptions(3)
		opts.Shard.ExactKNN = true
		opts.Shard.Seed = 7
		opts.Shard.Quantize = QuantSQ8
		data := make([]float32, len(ds.Base.Data))
		copy(data, ds.Base.Data)
		heap, err := BuildShardedFromFlat(data, ds.Base.Dim, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer heap.Close()
		path := filepath.Join(t.TempDir(), "idx.nsms")
		if err := heap.SaveMapped(path); err != nil {
			t.Fatal(err)
		}
		// The options word is bytes 16..19 of the meta blob at header offset
		// 32. The checksum after the 64-byte header and the 40-byte shard
		// entries covers it.
		if err := os.WriteFile(path, mutateWord(t, path, 32+16, 64+heap.Shards()*40, addInt4Option(t)), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Run("mmap", func(t *testing.T) {
			mapped, err := OpenMapped(path, MapOptions{})
			if err == nil {
				mapped.Close()
				t.Fatal("OpenMapped accepted the int4 bit")
			}
			if !IsCorrupt(err) || !strings.Contains(err.Error(), "option flags") {
				t.Fatalf("OpenMapped with the int4 bit: got %v, want a corrupt option flags error", err)
			}
		})
	})
}

// TestSaveOverOpenFile: OpenMapped(F), Add, Save(F). Save writes a temp
// file and renames it over F, so the first index, still mapping the old
// file, keeps answering as it did until Close, and Load(F) finds the added
// rows.
func TestSaveOverOpenFile(t *testing.T) {
	ds := shardedTestData(t, 900, 10)
	heap := buildShardedIndex(t, ds, 3)
	defer heap.Close()
	path := filepath.Join(t.TempDir(), "idx.nsg")
	if err := heap.Save(path); err != nil {
		t.Fatal(err)
	}
	first, err := OpenMapped(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	added := make([]int32, 5)
	for i := range added {
		vec := append([]float32(nil), ds.Base.Row(i)...)
		vec[0] += 0.5
		if added[i], err = first.Add(vec); err != nil {
			t.Fatal(err)
		}
	}
	answers := func(x *Index) string {
		var sb strings.Builder
		for qi := 0; qi < ds.Queries.Rows; qi++ {
			sb.WriteString(searchSig(x.SearchWithPool(ds.Queries.Row(qi), 10, 60)))
		}
		for i := range added {
			sb.WriteString(searchSig(x.SearchWithPool(x.Vector(int(added[i])), 1, 60)))
		}
		return sb.String()
	}
	first.Flush()
	before := answers(first)
	if err := first.Save(path); err != nil {
		t.Fatalf("Save over the file the index maps: %v", err)
	}
	if got := answers(first); got != before {
		t.Fatal("saving over its own file changed the first index's answers")
	}
	second, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if second.Len() != heap.Len()+len(added) {
		t.Fatalf("the saved file holds %d rows, want %d", second.Len(), heap.Len()+len(added))
	}
	if got := answers(second); got != before { // the added rows find themselves
		t.Fatal("the reloaded index answers differently from the index that saved it")
	}
}

// TestMappedIndexConcurrentFirstAdds: searches from two goroutines on a
// mapped 3-shard SQ8 index while its first Adds drain, which copies each
// shard's graph, vectors, codes and ids out of the mapping. Every
// answer holds k rows at their exact distances, read from the rows Vector
// returns at that moment; run under -race, the detector watches the copy.
func TestMappedIndexConcurrentFirstAdds(t *testing.T) {
	ds := shardedTestData(t, 1200, 16)
	opts := DefaultShardedOptions(3)
	opts.Shard.ExactKNN, opts.Shard.Seed, opts.Shard.Quantize = true, 7, QuantSQ8
	heap, err := BuildShardedFromFlat(append([]float32(nil), ds.Base.Data...), ds.Base.Dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer heap.Close()
	path := filepath.Join(t.TempDir(), "idx.nsg")
	if err := heap.Save(path); err != nil {
		t.Fatal(err)
	}
	x, err := OpenMapped(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if err := x.EnableLiveUpdates(LiveOptions{MaxPending: 4, PublishInterval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errs := make(chan error, 2)
	for w := range 2 {
		go func() {
			for i := w; ; i++ {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				q := ds.Queries.Row(i % ds.Queries.Rows)
				ids, dists := x.SearchWithPool(q, 10, 60)
				if len(ids) != 10 {
					errs <- fmt.Errorf("query %d: %d results", i, len(ids))
					return
				}
				for r, id := range ids {
					if want := vecmath.L2(q, x.Vector(int(id))); math.Float32bits(dists[r]) != math.Float32bits(want) {
						errs <- fmt.Errorf("query %d rank %d: id %d at %v, its row is at %v", i, r, id, dists[r], want)
						return
					}
				}
			}
		}()
	}
	added := make([]int32, 60)
	for i := range added {
		vec := append([]float32(nil), ds.Base.Row(i)...)
		vec[1] += 0.25
		if added[i], err = x.Add(vec); err != nil {
			t.Fatal(err)
		}
	}
	x.Flush()
	close(stop)
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := x.MaintenanceStats(); st.Pending != 0 || st.SnapshotRows != heap.Len()+len(added) {
		t.Fatalf("the Adds did not drain: %+v", st)
	}
	for _, id := range added {
		v := x.Vector(int(id))
		if ids, dists := x.SearchWithPool(v, 1, 60); len(ids) != 1 || ids[0] != id || dists[0] != 0 {
			t.Fatalf("added row %d does not find itself: %v %v", id, ids, dists)
		}
	}
}

// TestMappedCorruptionIsCorrupt: a damaged file must be rejected by
// OpenMapped and by Load with an error IsCorrupt recognizes, never
// partially served.
func TestMappedCorruptionIsCorrupt(t *testing.T) {
	ds := shardedTestData(t, 400, 5)
	heap := buildMappedPublicIndex(t, ds, QuantNone)
	dir := t.TempDir()
	path := filepath.Join(dir, "idx.nsgm")
	if err := heap.SaveMapped(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of a slab and truncate: both must surface as
	// corruption, and neither may yield a usable index, mapped or loaded.
	openers := []struct {
		name string
		open func(string) (*Index, error)
	}{
		{"OpenMapped", func(p string) (*Index, error) { return OpenMapped(p, MapOptions{}) }},
		{"Load", Load},
	}
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bitflip", func(b []byte) []byte {
			c := bytes.Clone(b)
			c[len(c)/2] ^= 0x40
			return c
		}},
		{"truncated", func(b []byte) []byte { return b[:len(b)-256] }},
	} {
		bad := filepath.Join(dir, tc.name)
		if err := os.WriteFile(bad, tc.mutate(data), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, open := range openers {
			idx, err := open.open(bad)
			if err == nil {
				idx.Close()
				t.Fatalf("%s, %s: corrupt file served", open.name, tc.name)
			}
			if !IsCorrupt(err) {
				t.Fatalf("%s, %s: IsCorrupt=false for %v", open.name, tc.name, err)
			}
		}
	}
	// An I/O failure (missing file) is not corruption.
	for _, open := range openers {
		if _, err := open.open(filepath.Join(dir, "absent")); err == nil || IsCorrupt(err) {
			t.Fatalf("%s of a missing file: got %v, want non-corrupt error", open.name, err)
		}
	}
}

// TestSaveAtomicCrash: every save path streams into a temp file that is
// renamed over the destination only on success, so a crash (or write
// failure) mid-save leaves the previous bundle intact and no temp litter.
func TestSaveAtomicCrash(t *testing.T) {
	ds := shardedTestData(t, 400, 5)
	idx := buildMappedPublicIndex(t, ds, QuantNone)
	dir := t.TempDir()
	path := filepath.Join(dir, "idx.nsg")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-write through the same atomic writer Save uses:
	// emit partial data, then fail.
	boom := errors.New("simulated crash")
	err = mstore.WriteFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write(good[:len(good)/2]); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("atomic write: got %v, want simulated crash", err)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(good, after) {
		t.Fatal("failed save clobbered the previous bundle")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp litter after failed save: %v", entries)
	}
	re, err := Load(path)
	if err != nil {
		t.Fatalf("previous bundle unloadable after failed save: %v", err)
	}
	ids, _ := re.SearchWithPool(ds.Queries.Row(0), 5, 60)
	if len(ids) != 5 {
		t.Fatal("reloaded bundle does not serve")
	}
}

// FuzzLoadSharded feeds arbitrary bytes to Load: the container parser,
// the records behind it, verified, and the copy to the heap (a layout
// older builds wrote, a stream file like the committed corpus entry or a
// top-level NSGM record, is refused at its first word). It must either return an error or an index
// whose searches do not panic and return distinct ids in range.
func FuzzLoadSharded(f *testing.F) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 300, Queries: 2, GTK: 5, Dim: 8, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	opts := DefaultShardedOptions(3)
	opts.Shard.ExactKNN = true
	opts.Shard.Seed = 3
	idx, err := BuildShardedFromFlat(ds.Base.Data, ds.Base.Dim, opts)
	if err != nil {
		f.Fatal(err)
	}
	seedPath := filepath.Join(f.TempDir(), "seed.nsg")
	if err := idx.Save(seedPath); err != nil {
		f.Fatal(err)
	}
	idx.Close()
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/3])
	f.Add(seed[:40])
	f.Add([]byte{})
	// A one-shard file with a metadata store (its empty id map and the
	// metadata section), and an older build's top-level NSGM record (which
	// is refused) and version-1 container.
	one, err := BuildFromFlat(ds.Base.Data, ds.Base.Dim, opts.Shard)
	if err != nil {
		f.Fatal(err)
	}
	if err := one.SetMetadata(parityMetadata(one.Len())); err != nil {
		f.Fatal(err)
	}
	if err := one.Save(seedPath); err != nil {
		f.Fatal(err)
	}
	for _, p := range []string{seedPath, legacyPath("one_sq8.nsgm"), legacyPath("three.nsms")} {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	scratch := filepath.Join(f.TempDir(), "fuzz.nsg")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(scratch, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadSharded(scratch)
		if err != nil {
			return
		}
		defer got.Close()
		checkFuzzedIndex(t, got)
	})
}

// checkFuzzedIndex holds an index read from fuzzed bytes to what every
// accepted file promises: its id maps partition its rows, so an answer
// holds distinct ids in [0, Len()), and a metadata store covers every row.
func checkFuzzedIndex(t *testing.T, got *Index) {
	if m := got.Metadata(); m != nil && m.Rows() != got.Len() {
		t.Fatalf("metadata store of %d rows on an index of %d", m.Rows(), got.Len())
	}
	if got.Len() > 0 && got.Dim() > 0 && got.Dim() <= 1024 {
		q := make([]float32, got.Dim())
		ids, _ := got.SearchWithPool(q, 3, 16)
		seen := make(map[int32]bool, len(ids))
		for _, id := range ids {
			if id < 0 || int(id) >= got.Len() || seen[id] {
				t.Fatalf("search of an opened index returned %v: id %d repeated or outside [0,%d)", ids, id, got.Len())
			}
			seen[id] = true
		}
	}
}

// FuzzOpenMapped feeds arbitrary bytes to OpenMapped: the NSMS container
// (its shard table, id maps, embedded records and metadata section), with
// the legacy top-level NSGM record among the seeds for the refusal. It
// must either return an error or an index that keeps checkFuzzedIndex's
// promises.
func FuzzOpenMapped(f *testing.F) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 300, Queries: 2, GTK: 5, Dim: 8, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	opts := DefaultOptions()
	opts.ExactKNN = true
	opts.Seed = 3
	one, err := BuildFromFlat(ds.Base.Data, ds.Base.Dim, opts)
	if err != nil {
		f.Fatal(err)
	}
	two, err := BuildShardedFromFlat(ds.Base.Data, ds.Base.Dim, ShardedOptions{Shards: 2, Shard: opts})
	if err != nil {
		f.Fatal(err)
	}
	defer two.Close()
	if err := two.SetMetadata(parityMetadata(two.Len())); err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	// Beside today's containers, an older build's top-level NSGM record
	// (which is refused) and version-1 container.
	paths := []string{filepath.Join(dir, "one.nsms"), filepath.Join(dir, "two.nsms"), legacyPath("one_sq8.nsgm"), legacyPath("three.nsms")}
	if err := one.SaveMapped(paths[0]); err != nil {
		f.Fatal(err)
	}
	if err := two.SaveMapped(paths[1]); err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte{})

	scratch := filepath.Join(f.TempDir(), "fuzz.nsms")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(scratch, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := OpenMapped(scratch, MapOptions{})
		if err != nil {
			return
		}
		defer got.Close()
		checkFuzzedIndex(t, got)
	})
}
