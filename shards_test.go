package nsg

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/vecmath"
)

// These tests pin the shard set behind every Index: the partition and its
// locator, the fan-out, routed inserts and the container file.

// shardTestOptions build each shard with an exact kNN graph of 15
// neighbours, pool 40 and degree cap 30.
var shardTestOptions = Options{GraphK: 15, BuildL: 40, MaxDegree: 30, ExactKNN: true, Seed: 1}

// shardedFixture builds an e-commerce-like index of n rows in shards
// shards with shardTestOptions.
func shardedFixture(t *testing.T, n, shards int) (*Index, dataset.Dataset) {
	t.Helper()
	ds, err := dataset.ECommerceLike(dataset.Config{N: n, Queries: 30, GTK: 10, Dim: 32, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	x, err := BuildShardedFromFlat(ds.Base.Data, ds.Base.Dim, ShardedOptions{Shards: shards, Shard: shardTestOptions})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(x.Close) // Close is idempotent, so tests may also close explicitly
	return x, ds
}

// searchIDs answers every query of ds at pool l.
func searchIDs(x *Index, ds dataset.Dataset, l int) [][]int32 {
	got := make([][]int32, ds.Queries.Rows)
	for qi := range got {
		got[qi], _ = x.SearchWithPool(ds.Queries.Row(qi), 10, l)
	}
	return got
}

// requireSameAnswers fails unless a and b answer the first n queries of ds
// with the same ids and distance bits.
func requireSameAnswers(t *testing.T, a, b *Index, ds dataset.Dataset, n int) {
	t.Helper()
	for qi := range n {
		q := ds.Queries.Row(qi)
		ai, ad := a.SearchWithPool(q, 10, 50)
		bi, bd := b.SearchWithPool(q, 10, 50)
		if !slices.Equal(ai, bi) || len(ad) != len(bd) {
			t.Fatalf("query %d: ids %v vs %v", qi, ai, bi)
		}
		for i := range ad {
			if math.Float32bits(ad[i]) != math.Float32bits(bd[i]) {
				t.Fatalf("query %d pos %d: dist %x vs %x", qi, i, math.Float32bits(ad[i]), math.Float32bits(bd[i]))
			}
		}
	}
}

func TestShardedRecall(t *testing.T) {
	x, ds := shardedFixture(t, 2000, 4)
	if x.Shards() != 4 {
		t.Fatalf("shards = %d, want 4", x.Shards())
	}
	if recall := dataset.MeanRecall(searchIDs(x, ds, 60), ds.GT, 10); recall < 0.92 {
		t.Errorf("sharded recall@10 = %.3f, want >= 0.92", recall)
	}
}

func TestGlobalIDsValid(t *testing.T) {
	x, ds := shardedFixture(t, 1000, 4)
	q := ds.Queries.Row(0)
	ids, dists := x.SearchWithPool(q, 10, 40)
	for i, id := range ids {
		if id < 0 || int(id) >= ds.Base.Rows {
			t.Fatalf("global id %d out of range", id)
		}
		// The reported distance must match the global vector exactly.
		if want := vecmath.L2(q, ds.Base.Row(int(id))); dists[i] != want {
			t.Fatalf("id %d: dist %v, want %v — local→global mapping broken", id, dists[i], want)
		}
	}
}

// requirePartition fails unless the shards' translate tables cover the
// ids [0, rows) once each.
func requirePartition(t *testing.T, x *Index, rows int) {
	t.Helper()
	seen := make(map[int32]struct{})
	for _, h := range x.s.handles {
		for _, id := range h.Translate() {
			if _, dup := seen[id]; dup {
				t.Fatalf("id %d in two shards", id)
			}
			seen[id] = struct{}{}
		}
	}
	if len(seen) != rows {
		t.Fatalf("%d ids covered, want %d", len(seen), rows)
	}
}

func TestEveryPointInExactlyOneShard(t *testing.T) {
	x, _ := shardedFixture(t, 1000, 4)
	requirePartition(t, x, 1000)
}

// TestValidation: rows too few to fill the shards are an error, and a
// shard count of zero builds one shard.
func TestValidation(t *testing.T) {
	data := make([]float32, 10*4)
	if _, err := BuildShardedFromFlat(data, 4, ShardedOptions{Shards: 8, Shard: shardTestOptions}); err == nil {
		t.Error("expected error for too many shards")
	}
	ds := shardedTestData(t, 40, 1)
	x, err := BuildShardedFromFlat(ds.Base.Data, ds.Base.Dim, ShardedOptions{Shard: shardTestOptions})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if x.Shards() != 1 {
		t.Errorf("zero shards built %d shards, want 1", x.Shards())
	}
}

// roundTrip saves x and reopens it verified, checking the options a file
// keeps (GraphK, BuildL, MaxDegree, SearchL and Quantize) come back as
// written and the reopened index serves the file it holds open.
func roundTrip(t *testing.T, x *Index) *Index {
	t.Helper()
	path := filepath.Join(t.TempDir(), "idx.nsg")
	if err := x.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := OpenMapped(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(got.Close)
	want := Options{GraphK: x.opts.GraphK, BuildL: x.opts.BuildL, MaxDegree: x.opts.MaxDegree, SearchL: x.opts.SearchL, Quantize: x.opts.Quantize}
	if got.opts != want {
		t.Fatalf("options %+v did not round-trip: %+v", want, got.opts)
	}
	if got.s.mapped == nil {
		t.Fatal("the verified open holds no file")
	}
	return got
}

func TestShardedSaveLoad(t *testing.T) {
	x, ds := shardedFixture(t, 800, 3)
	x.opts = Options{GraphK: 11, BuildL: 22, MaxDegree: 33, SearchL: 44} // any values round-trip
	got := roundTrip(t, x)
	if got.Shards() != x.Shards() || got.Len() != x.Len() || got.Dim() != x.Dim() {
		t.Fatalf("shape %d/%d/%d, want %d/%d/%d", got.Shards(), got.Len(), got.Dim(), x.Shards(), x.Len(), x.Dim())
	}
	requireSameAnswers(t, x, got, ds, 1)
	for _, id := range []int{0, 99, ds.Base.Rows - 1} {
		if !slices.Equal(got.Vector(id), ds.Base.Row(id)) {
			t.Fatalf("vector %d did not round-trip", id)
		}
	}
}

func TestRoutedInsert(t *testing.T) {
	x, ds := shardedFixture(t, 1000, 4)
	n0 := ds.Base.Rows
	vec := make([]float32, ds.Base.Dim)
	copy(vec, ds.Base.Row(7)) // a duplicate of an existing point: trivially findable
	gid, err := x.Add(vec)
	if err != nil {
		t.Fatal(err)
	}
	if gid != int32(n0) {
		t.Fatalf("global id = %d, want %d", gid, n0)
	}
	if x.Len() != n0+1 {
		t.Fatalf("Len = %d, want %d", x.Len(), n0+1)
	}
	if !slices.Equal(x.Vector(int(gid)), vec) {
		t.Fatalf("Vector(%d) = %v, want the inserted row", gid, x.Vector(int(gid)))
	}
	// The new point must be discoverable through the fan-out path.
	ids, _ := x.SearchWithPool(vec, 2, 40)
	if !slices.Contains(ids, gid) && !slices.Contains(ids, 7) {
		t.Fatalf("inserted point (gid %d) not found near its own vector: %v", gid, ids)
	}
	// Global ids must stay unique across shards once the insert drained.
	x.Flush()
	requirePartition(t, x, n0+1)
}

func TestInsertDimMismatch(t *testing.T) {
	x, _ := shardedFixture(t, 1000, 2)
	if _, err := x.Add(make([]float32, 3)); err == nil {
		t.Fatal("expected dim-mismatch error")
	}
}

func TestSearchStatsMerged(t *testing.T) {
	x, ds := shardedFixture(t, 1200, 3)
	ids, dists, st := x.SearchWithStats(ds.Queries.Row(0), 10, 40)
	if len(ids) != 10 {
		t.Fatalf("got %d results, want 10", len(ids))
	}
	// The merged tallies must cover all shards: at least one hop and k
	// distance computations per shard.
	if st.Hops < x.Shards() || st.DistanceComputations == 0 {
		t.Fatalf("stats not merged over %d shards: %+v", x.Shards(), st)
	}
	// Stats path and plain path must agree on the results.
	plainIDs, plainDists := x.SearchWithPool(ds.Queries.Row(0), 10, 40)
	if !slices.Equal(ids, plainIDs) || !slices.Equal(dists, plainDists) {
		t.Fatalf("stats path diverged: %v %v vs %v %v", ids, dists, plainIDs, plainDists)
	}
}

// TestContainerLoadErrors: a file the verified open cannot read (empty, a
// bad magic, a flipped byte inside a shard's record) fails Load and
// OpenMapped with an error IsCorrupt recognises, and OpenMapped of a missing
// file fails.
func TestContainerLoadErrors(t *testing.T) {
	x, _ := shardedFixture(t, 400, 2)
	path := filepath.Join(t.TempDir(), "idx.nsg")
	if err := x.Save(path); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	saved[len(saved)/2] ^= 0xff // inside shard 1's record
	for name, b := range map[string][]byte{
		"an empty file":  nil,
		"bad magic":      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		"a flipped byte": saved,
	} {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := Load(path); !IsCorrupt(err) {
			if got != nil {
				got.Close()
			}
			t.Errorf("Load of %s: got %v, want a format error", name, err)
		}
		if got, err := OpenMapped(path, MapOptions{}); !IsCorrupt(err) {
			if got != nil {
				got.Close()
			}
			t.Errorf("OpenMapped of %s: got %v, want a format error", name, err)
		}
	}
	if _, err := OpenMapped(filepath.Join(t.TempDir(), "missing"), MapOptions{}); err == nil {
		t.Error("expected error for a missing file")
	}
}

// TestLoadRejectsStreamLayouts: a file in one of the stream layouts older
// builds wrote fails OpenMapped, verified or not, with a
// *core.FormatError that names the layout and the last build that reads it.
func TestLoadRejectsStreamLayouts(t *testing.T) {
	for _, layout := range []string{"NSGD", "NSGB", "NSGF", "NSGQ"} {
		b := append([]byte{layout[3], layout[2], layout[1], layout[0]}, make([]byte, 60)...)
		path := filepath.Join(t.TempDir(), "old")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		for name, opts := range map[string]MapOptions{"OpenMapped": {}, "OpenMapped/trusted": {NoVerify: true}} {
			var fe *core.FormatError
			if _, err := OpenMapped(path, opts); !errors.As(err, &fe) || !strings.Contains(fe.Reason, layout) || !strings.Contains(fe.Reason, "ad169cf") {
				t.Errorf("%s of an %s file: got %v, want a format error naming the layout and commit ad169cf", name, layout, err)
			}
		}
	}
}

func TestCloseIdempotent(t *testing.T) {
	x, ds := shardedFixture(t, 1000, 2)
	if ids, _ := x.SearchWithPool(ds.Queries.Row(0), 5, 40); len(ids) != 5 {
		t.Fatalf("got %d results", len(ids))
	}
	x.Close()
	x.Close() // must not panic
}

// TestQuantizedSharding: one quantizer is trained for the whole build (all
// shards share identical scales), the fan-out path serves quantized
// results, and the saved file round-trips with the shared state intact.
func TestQuantizedSharding(t *testing.T) {
	ds, err := dataset.ECommerceLike(dataset.Config{N: 1600, Queries: 30, GTK: 10, Dim: 32, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	opts := shardTestOptions
	opts.Quantize = QuantSQ8
	x, err := BuildShardedFromFlat(ds.Base.Data, ds.Base.Dim, ShardedOptions{Shards: 4, Shard: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if !x.Quantized() {
		t.Fatal("index not quantized")
	}
	scale := x.s.shards[0].Quant.Q.Scale()
	for sh, shard := range x.s.shards {
		if !shard.IsQuantized() {
			t.Fatalf("shard %d not quantized", sh)
		}
		if got := shard.Quant.Q.Scale(); got != scale {
			t.Fatalf("shard %d scale %g != shard 0 scale %g: quantizer not shared", sh, got, scale)
		}
	}
	if recall := dataset.MeanRecall(searchIDs(x, ds, 60), ds.GT, 10); recall < 0.92 {
		t.Errorf("quantized sharded recall@10 = %.3f, want >= 0.92", recall)
	}

	loaded := roundTrip(t, x)
	if !loaded.Quantized() {
		t.Fatal("reloaded index lost quantization")
	}
	requireSameAnswers(t, x, loaded, ds, 10)

	// Routed insert on the quantized index: codes and remap extend.
	vec := make([]float32, ds.Base.Dim)
	copy(vec, ds.Base.Row(7))
	gid, err := x.Add(vec)
	if err != nil {
		t.Fatal(err)
	}
	ids, dists := x.SearchWithPool(vec, 2, 60)
	if i := slices.Index(ids, gid); i < 0 || dists[i] != 0 {
		t.Fatalf("inserted vector %d not found at distance 0: %v %v", gid, ids, dists)
	}
}

// TestEveryShardIsRelaid: every shard, float or SQ8, leaves buildShard in
// BFS order (its navigating node, the BFS root, is internal row 0), and the
// shard's public row j is still global row Translate()[j] of the base.
func TestEveryShardIsRelaid(t *testing.T) {
	ds, err := dataset.ECommerceLike(dataset.Config{N: 1200, Queries: 1, GTK: 1, Dim: 16, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	for _, quantize := range []QuantMode{QuantNone, QuantSQ8} {
		opts := shardTestOptions
		opts.ExactKNN, opts.Quantize = false, quantize
		x, err := BuildShardedFromFlat(ds.Base.Data, ds.Base.Dim, ShardedOptions{Shards: 3, Shard: opts})
		if err != nil {
			t.Fatal(err)
		}
		for sh, shard := range x.s.shards {
			if shard.Navigating != 0 {
				t.Fatalf("%v shard %d: navigating node is internal row %d, not 0: it was not relaid", quantize, sh, shard.Navigating)
			}
			if shard.IsQuantized() != (quantize == QuantSQ8) {
				t.Fatalf("%v shard %d: IsQuantized %v", quantize, sh, shard.IsQuantized())
			}
			for j, g := range x.s.handles[sh].Translate() {
				if v, _ := x.s.handles[sh].Vector(int32(j)); !slices.Equal(v, ds.Base.Row(int(g))) {
					t.Fatalf("%v shard %d row %d is not global row %d", quantize, sh, j, g)
				}
			}
		}
		x.Close()
	}
}

// TestShardedMappedParity: a mapped container must serve byte-identical
// fan-out results to the heap index it was written from, for the plain
// build and the SQ8 build.
func TestShardedMappedParity(t *testing.T) {
	for _, quantize := range []QuantMode{QuantNone, QuantSQ8} {
		t.Run(quantize.String(), func(t *testing.T) {
			ds, err := dataset.ECommerceLike(dataset.Config{N: 1500, Queries: 25, GTK: 10, Dim: 32, Seed: 31})
			if err != nil {
				t.Fatal(err)
			}
			opts := shardTestOptions
			opts.Quantize = quantize
			heap, err := BuildShardedFromFlat(ds.Base.Data, ds.Base.Dim, ShardedOptions{Shards: 3, Shard: opts})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(heap.Close)
			heap.opts.GraphK, heap.opts.SearchL = 12, 7 // any values round-trip

			mapped := roundTrip(t, heap)
			if mapped.Shards() != heap.Shards() || mapped.Len() != heap.Len() {
				t.Fatalf("mapped shape: shards=%d len=%d", mapped.Shards(), mapped.Len())
			}
			if mapped.QuantMode() != quantize {
				t.Fatalf("QuantMode() = %v, want %v", mapped.QuantMode(), quantize)
			}
			requireSameAnswers(t, heap, mapped, ds, ds.Queries.Rows)
			// Vector lookup resolves through the locator on the mapped side
			// and must agree with the original base rows.
			for _, id := range []int{0, 7, ds.Base.Rows - 1} {
				if !slices.Equal(mapped.Vector(id), ds.Base.Row(id)) {
					t.Fatalf("Vector(%d) = %v, want %v", id, mapped.Vector(id), ds.Base.Row(id))
				}
				l := mapped.s.loc[id]
				if g := mapped.s.handles[l.shard].Translate()[l.local]; g != int32(id) {
					t.Fatalf("locator sends %d to shard %d row %d, which holds %d", id, l.shard, l.local, g)
				}
			}
			if hb, mb := heap.Stats().IndexBytes, mapped.Stats().IndexBytes; hb != mb {
				t.Fatalf("IndexBytes %d vs %d", hb, mb)
			}
		})
	}
}

// TestShardedMappedCorruption: container-level damage must be rejected as
// a whole — no partially valid multi-shard index ever serves.
func TestShardedMappedCorruption(t *testing.T) {
	heap, _ := shardedFixture(t, 800, 2)
	var buf bytes.Buffer
	if err := heap.write(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"table-crc", func(b []byte) []byte { b[smHeaderSize] ^= 0x01; return b }},
		{"size-mismatch", func(b []byte) []byte { return append(b, 0) }},
		{"truncate-header", func(b []byte) []byte { return b[:smHeaderSize-8] }},
		{"truncate-mid-shard", func(b []byte) []byte { return b[:len(b)/2&^63] }},
		{"idmap-rot", func(b []byte) []byte {
			off := int64(0)
			for i := 0; i < 8; i++ { // idmapOff of shard 0 from the table
				off |= int64(b[smHeaderSize+i]) << (8 * i)
			}
			b[off] ^= 0x01
			return b
		}},
		{"second-record-rot-header", func(b []byte) []byte {
			off := int64(0)
			for i := 0; i < 8; i++ { // recOff of shard 1
				off |= int64(b[smHeaderSize+smShardEntrySize+16+i]) << (8 * i)
			}
			b[off+4] ^= 0xff // version field of the embedded record
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(append([]byte(nil), valid...))
			path := filepath.Join(t.TempDir(), "corrupt.nsms")
			if err := os.WriteFile(path, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			x, err := OpenMapped(path, MapOptions{})
			if err == nil {
				x.Close()
				t.Fatal("corrupt container opened without error")
			}
			var fe *core.FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v is not a FormatError", err)
			}
		})
	}
}
