package nsg

// Public-API tests for disk-resident serving: mapped/heap search parity
// across index shapes (float32, SQ8+rerank, tombstoned, sharded), the
// read-only mutation contract, PromoteToHeap, the crash-safety of the
// atomic save path, and a fuzz target over the sharded bundle loader.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mstore"
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
// was removed carries the retired int4 marker in place of the SQ8 flag; it
// must be refused as corrupt, not misread.
func TestMappedParityPublic(t *testing.T) {
	ds := shardedTestData(t, 2000, 30)
	for _, quantize := range []QuantMode{QuantNone, QuantSQ8} {
		t.Run(quantize.String(), func(t *testing.T) {
			heap := buildMappedPublicIndex(t, ds, quantize)
			path := filepath.Join(t.TempDir(), "idx.nsgm")
			if err := heap.SaveMapped(path); err != nil {
				t.Fatal(err)
			}
			t.Run("mmap", func(t *testing.T) {
				mapped, err := OpenMapped(path, MapOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer mapped.Close()
				if !mapped.ReadOnly() {
					t.Fatal("mapped index not read-only")
				}
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
		heap := buildMappedPublicIndex(t, ds, QuantSQ8)
		path := filepath.Join(t.TempDir(), "idx.nsgm")
		if err := heap.SaveMapped(path); err != nil {
			t.Fatal(err)
		}
		// The flags word is header bytes 8..11; the header checksum over the
		// first 188 bytes is recomputed so the flags check itself is reached.
		blob := mutateWord(t, path, 8, swapSQ8ForInt4(t))
		binary.LittleEndian.PutUint32(blob[188:], crc32.ChecksumIEEE(blob[:188]))
		if err := os.WriteFile(path, blob, 0o644); err != nil {
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
// works on a read-only mapped index; filtered results must match a heap
// index with the same tombstones.
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

// TestMappedReadOnlyContract: every mutating operation on a mapped index
// must return ErrReadOnly (detectable with errors.Is) and leave the index
// serving.
func TestMappedReadOnlyContract(t *testing.T) {
	ds := shardedTestData(t, 600, 10)
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

	if _, err := mapped.Add(make([]float32, mapped.Dim())); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Add: got %v, want ErrReadOnly", err)
	}
	if err := mapped.EnableLiveUpdates(LiveOptions{}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("EnableLiveUpdates: got %v, want ErrReadOnly", err)
	}
	if err := mapped.Delete(3); err != nil {
		t.Fatal(err)
	}
	if _, err := mapped.Compact(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Compact: got %v, want ErrReadOnly", err)
	}
	// The stream Save serializes through the core writer, which refuses on a
	// mapped index; the atomic writer must leave no file behind.
	streamPath := filepath.Join(t.TempDir(), "stream.nsg")
	if err := mapped.Save(streamPath); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Save: got %v, want ErrReadOnly", err)
	}
	if _, err := os.Stat(streamPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed Save left a file behind: %v", err)
	}

	ids, _ := mapped.SearchWithPool(ds.Queries.Row(0), 5, 60)
	if len(ids) != 5 {
		t.Fatal("mapped index stopped serving after rejected mutations")
	}
}

// TestMappedPromoteToHeapPublic: PromoteToHeap must hand back a fully
// mutable index with unchanged search results and tombstones, whose Adds
// drain into the heap graph.
func TestMappedPromoteToHeapPublic(t *testing.T) {
	ds := shardedTestData(t, 800, 10)
	heap := buildMappedPublicIndex(t, ds, QuantSQ8)
	path := filepath.Join(t.TempDir(), "idx.nsgm")
	if err := heap.SaveMapped(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMapped(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if err := mapped.Delete(5); err != nil {
		t.Fatal(err)
	}

	before := make([]string, ds.Queries.Rows)
	for qi := range before {
		ids, dists := mapped.SearchWithPool(ds.Queries.Row(qi), 10, 60)
		before[qi] = searchSig(ids, dists)
	}
	if err := mapped.PromoteToHeap(); err != nil {
		t.Fatal(err)
	}
	if mapped.ReadOnly() {
		t.Fatal("still read-only after PromoteToHeap")
	}
	if !mapped.Deleted(5) {
		t.Fatal("tombstone lost across PromoteToHeap")
	}
	for qi := range before {
		ids, dists := mapped.SearchWithPool(ds.Queries.Row(qi), 10, 60)
		if searchSig(ids, dists) != before[qi] {
			t.Fatalf("query %d: results changed across PromoteToHeap", qi)
		}
	}
	vec := append([]float32(nil), ds.Base.Row(0)...)
	vec[0] += 0.5
	id, err := mapped.Add(vec)
	if err != nil {
		t.Fatalf("Add after PromoteToHeap: %v", err)
	}
	if mapped.Len() != heap.Len()+1 {
		t.Fatalf("Len after Add = %d, want %d", mapped.Len(), heap.Len()+1)
	}
	mapped.Flush()
	if st := mapped.MaintenanceStats(); st.Pending != 0 || st.SnapshotRows != mapped.Len() {
		t.Fatalf("Add did not drain into the heap graph: %+v", st)
	}
	if ids, dists := mapped.SearchWithPool(vec, 1, 60); len(ids) != 1 || ids[0] != id || dists[0] != 0 {
		t.Fatalf("added row %d not found after Flush: %v %v", id, ids, dists)
	}
}

// TestShardedMappedRoundTrip: the sharded container must round-trip the
// build options and serve byte-identical fan-out searches, for plain and
// quantized shards. A container from before int4 was removed sets the
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
				mapped, err := OpenMappedSharded(path, MapOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer mapped.Close()
				if !mapped.ReadOnly() {
					t.Fatal("mapped sharded index not read-only")
				}
				if mapped.Shards() != heap.Shards() || mapped.Len() != heap.Len() ||
					mapped.Dim() != heap.Dim() || mapped.QuantMode() != heap.QuantMode() {
					t.Fatal("shape or options did not round-trip")
				}
				if mapped.opts.Shard.GraphK != heap.opts.Shard.GraphK ||
					mapped.opts.Shard.MaxDegree != heap.opts.Shard.MaxDegree ||
					mapped.opts.Shard.SearchL != heap.opts.Shard.SearchL {
					t.Fatalf("build options did not round-trip: %+v vs %+v", mapped.opts.Shard, heap.opts.Shard)
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
				if _, err := mapped.Add(make([]float32, mapped.Dim())); !errors.Is(err, ErrReadOnly) {
					t.Fatalf("sharded Add: got %v, want ErrReadOnly", err)
				}
				if err := mapped.EnableLiveUpdates(LiveOptions{}); !errors.Is(err, ErrReadOnly) {
					t.Fatalf("sharded EnableLiveUpdates: got %v, want ErrReadOnly", err)
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
		// entries covers it, so it is recomputed to reach the options check.
		blob := mutateWord(t, path, 32+16, addInt4Option(t))
		crcAt := 64 + heap.Shards()*40
		binary.LittleEndian.PutUint32(blob[crcAt:], crc32.ChecksumIEEE(blob[:crcAt]))
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Run("mmap", func(t *testing.T) {
			mapped, err := OpenMappedSharded(path, MapOptions{})
			if err == nil {
				mapped.Close()
				t.Fatal("OpenMappedSharded accepted the int4 bit")
			}
			if !IsCorrupt(err) || !strings.Contains(err.Error(), "option flags") {
				t.Fatalf("OpenMappedSharded with the int4 bit: got %v, want a corrupt option flags error", err)
			}
		})
	})
}

// TestMappedCorruptionIsCorrupt: a damaged mapped file must be rejected
// with an error IsCorrupt recognizes, never partially served.
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
	// corruption, and neither may yield a usable index.
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
		idx, err := OpenMapped(bad, MapOptions{})
		if err == nil {
			idx.Close()
			t.Fatalf("%s: corrupt file served", tc.name)
		}
		if !IsCorrupt(err) {
			t.Fatalf("%s: IsCorrupt=false for %v", tc.name, err)
		}
	}
	// An I/O failure (missing file) is not corruption.
	if _, err := OpenMapped(filepath.Join(dir, "absent"), MapOptions{}); err == nil || IsCorrupt(err) {
		t.Fatalf("missing file: got %v, want non-corrupt error", err)
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

// FuzzLoadSharded feeds arbitrary bytes to the sharded bundle loader: it
// must either return an error or an index whose searches do not panic.
func FuzzLoadSharded(f *testing.F) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 300, Queries: 2, GTK: 5, Dim: 8, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	opts := DefaultShardedOptions(2)
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
		if got.Len() > 0 && got.Dim() > 0 && got.Dim() <= 1024 {
			q := make([]float32, got.Dim())
			got.SearchWithPool(q, 3, 16)
		}
	})
}
