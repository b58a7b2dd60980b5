package nsg

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
)

func shardedTestData(t *testing.T, n, queries int) dataset.Dataset {
	t.Helper()
	ds, err := dataset.SIFTLike(dataset.Config{N: n, Queries: queries, GTK: 10, Dim: 32, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// withShards is DefaultOptions over r shards.
func withShards(r int) Options {
	o := DefaultOptions()
	o.Shards = r
	return o
}

// filteredStats is SearchWith under filter f with work accounting, in the
// three-result form the parity tests compare.
func filteredStats(x *Index, q []float32, k, l int, f *Filter) ([]int32, []float32, SearchStats) {
	var st SearchStats
	ids, dists := x.SearchWith(q, k, SearchParams{L: l, Filter: f, Stats: &st})
	return ids, dists, st
}

func buildShardedIndex(t *testing.T, ds dataset.Dataset, shards int) *ShardedIndex {
	t.Helper()
	opts := DefaultShardedOptions(shards)
	opts.Shard.ExactKNN = true
	opts.Shard.Seed = 7
	data := make([]float32, len(ds.Base.Data))
	copy(data, ds.Base.Data)
	idx, err := BuildShardedFromFlat(data, ds.Base.Dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func recallAt10(t *testing.T, ds dataset.Dataset, search func(q []float32) []int32) float64 {
	t.Helper()
	got := make([][]int32, ds.Queries.Rows)
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		got[qi] = search(ds.Queries.Row(qi))
	}
	return dataset.MeanRecall(got, ds.GT, 10)
}

// TestShardedRecallParity is the acceptance gate: at equal query pool
// budget L, a sharded index's recall@10 must be within 0.01 of a single NSG
// over the same data. (Each of the r shards is searched with max(k, ⌈L/r⌉),
// so the split spends about the single NSG's work; the gate bounds what
// recall it loses for that.)
func TestShardedRecallParity(t *testing.T) {
	ds := shardedTestData(t, 3000, 50)
	const l = 60

	single := buildShardedIndex(t, ds, 1)
	defer single.Close()
	for _, shards := range []int{2, 4} {
		sharded := buildShardedIndex(t, ds, shards)
		singleRecall := recallAt10(t, ds, func(q []float32) []int32 {
			ids, _ := single.SearchWithPool(q, 10, l)
			return ids
		})
		shardedRecall := recallAt10(t, ds, func(q []float32) []int32 {
			ids, _ := sharded.SearchWithPool(q, 10, l)
			return ids
		})
		t.Logf("r=%d: single recall@10 = %.4f, sharded recall@10 = %.4f", shards, singleRecall, shardedRecall)
		if shardedRecall < singleRecall-0.01 {
			t.Errorf("r=%d: sharded recall@10 = %.4f, more than 0.01 below single-NSG %.4f",
				shards, shardedRecall, singleRecall)
		}
		sharded.Close()
	}
}

// TestShardedBudgetPrice pins what splitting the query's pool budget costs:
// at l = 60, r = 2 and r = 4 shards, each searched with max(k, ⌈l/r⌉), keep
// recall@10 within 0.005 of the one-shard index's over the same rows and
// spend at most 1.3x (r = 2) and 1.6x (r = 4) its distance evaluations. The
// uniform and Gaussian rows of ARCHITECTURE.md's table, which no bound
// covers, run only under -v.
func TestShardedBudgetPrice(t *testing.T) {
	const l, queries = 60, 200
	for _, c := range []struct {
		name  string
		gen   func(dataset.Config) (dataset.Dataset, error)
		dim   int
		gated bool
	}{
		{"sift", dataset.SIFTLike, 128, true},
		{"deep", dataset.DEEPLike, 96, true},
		{"uniform", dataset.Uniform, 128, false},
		{"gaussian", dataset.Gaussian, 128, false},
	} {
		if !c.gated && !testing.Verbose() {
			continue
		}
		ds, err := c.gen(dataset.Config{N: 8000, Queries: queries, GTK: 10, Dim: c.dim, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var oneRecall, oneComps float64
		for _, r := range []int{1, 2, 4} {
			idx, err := BuildShardedFromFlat(ds.Base.Data, ds.Base.Dim, DefaultShardedOptions(r))
			if err != nil {
				t.Fatal(err)
			}
			var comps uint64
			recall := recallAt10(t, ds, func(q []float32) []int32 {
				ids, _, st := idx.SearchWithStats(q, 10, l)
				comps += st.DistanceComputations
				return ids
			})
			idx.Close()
			perQuery := float64(comps) / queries
			t.Logf("%s-%d r=%d: recall@10 %.4f, %.0f distance evaluations a query", c.name, c.dim, r, recall, perQuery)
			if r == 1 {
				oneRecall, oneComps = recall, perQuery
				continue
			}
			if !c.gated {
				continue
			}
			if recall < oneRecall-0.005 {
				t.Errorf("%s r=%d: recall@10 %.4f, more than 0.005 below one shard's %.4f", c.name, r, recall, oneRecall)
			}
			if bound := map[int]float64{2: 1.3, 4: 1.6}[r]; perQuery > bound*oneComps {
				t.Errorf("%s r=%d: %.0f evaluations a query, over %.1fx one shard's %.0f", c.name, r, perQuery, bound, oneComps)
			}
		}
	}
}

func TestShardedSaveLoadParity(t *testing.T) {
	ds := shardedTestData(t, 1200, 20)
	idx := buildShardedIndex(t, ds, 3)
	defer idx.Close()
	path := filepath.Join(t.TempDir(), "sharded.nsg")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Len() != idx.Len() || loaded.Dim() != idx.Dim() || loaded.Shards() != idx.Shards() {
		t.Fatalf("shape changed across save/load: %d/%d/%d vs %d/%d/%d",
			loaded.Len(), loaded.Dim(), loaded.Shards(), idx.Len(), idx.Dim(), idx.Shards())
	}
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		q := ds.Queries.Row(qi)
		ids1, d1 := idx.SearchWithPool(q, 10, 50)
		ids2, d2 := loaded.SearchWithPool(q, 10, 50)
		if len(ids1) != len(ids2) {
			t.Fatalf("query %d: result lengths differ: %d vs %d", qi, len(ids1), len(ids2))
		}
		for i := range ids1 {
			if ids1[i] != ids2[i] || d1[i] != d2[i] {
				t.Fatalf("query %d pos %d: (%d, %v) vs (%d, %v) after reload",
					qi, i, ids1[i], d1[i], ids2[i], d2[i])
			}
		}
	}
	// Load and LoadSharded are one reader: Load serves the sharded file.
	again, err := Load(path)
	if err != nil {
		t.Fatalf("Load of a sharded file: %v", err)
	}
	defer again.Close()
	if again.Shards() != idx.Shards() || again.Len() != idx.Len() {
		t.Fatalf("Load: %d shards, %d rows; want %d, %d", again.Shards(), again.Len(), idx.Shards(), idx.Len())
	}
}

// TestShardedSaveLoadKeepsOptions gates the options round-trip: Add on a
// reloaded index must use the original build parameters, not defaults.
func TestShardedSaveLoadKeepsOptions(t *testing.T) {
	ds := shardedTestData(t, 600, 4)
	opts := DefaultShardedOptions(2)
	opts.Shard.ExactKNN = true
	opts.Shard.GraphK = 17
	opts.Shard.BuildL = 33
	opts.Shard.MaxDegree = 19
	opts.Shard.SearchL = 71
	data := append([]float32(nil), ds.Base.Data...)
	idx, err := BuildShardedFromFlat(data, ds.Base.Dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	path := filepath.Join(t.TempDir(), "opts.nsg")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	got := loaded.opts
	if got.GraphK != 17 || got.BuildL != 33 || got.MaxDegree != 19 || got.SearchL != 71 {
		t.Fatalf("options not restored: %+v", got)
	}
}

// TestLoadShardedRejectsBadPartition: a file whose shard id maps do not
// partition the rows must be refused, not served. Here shard 0's id map
// names its first global id twice, so one row would answer for two ids and
// another would never be returned. The checksums are fixed up, so the
// partition check is what refuses it, as corrupt. A missing file is an
// error too.
func TestLoadShardedRejectsBadPartition(t *testing.T) {
	ds := shardedTestData(t, 400, 1)
	idx := buildShardedIndex(t, ds, 2)
	defer idx.Close()
	path := filepath.Join(t.TempDir(), "ok.nsg")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 0's table entry, 64 bytes in, holds its id map's offset and
	// length and, 32 bytes in, the map's checksum; the table checksum
	// follows the two 40-byte entries.
	le := binary.LittleEndian
	off, n := le.Uint64(blob[64:]), le.Uint64(blob[64+8:])
	ids := blob[off : off+n]
	copy(ids[4:8], ids[0:4])
	le.PutUint32(blob[64+32:], crc32.ChecksumIEEE(ids))
	le.PutUint32(blob[64+80:], crc32.ChecksumIEEE(blob[:64+80]))
	bad := filepath.Join(t.TempDir(), "dup.nsg")
	if err := os.WriteFile(bad, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadSharded(bad); err == nil || !IsCorrupt(err) || !strings.Contains(err.Error(), "repeated") {
		if got != nil {
			got.Close()
		}
		t.Fatalf("LoadSharded of id maps that repeat a global id: got %v, want a corruption error naming the repeat", err)
	}
	if _, err := LoadSharded(filepath.Join(t.TempDir(), "missing.nsg")); err == nil {
		t.Fatal("LoadSharded of a missing file succeeded")
	}
}

func TestShardedAddRouted(t *testing.T) {
	ds := shardedTestData(t, 1000, 10)
	idx := buildShardedIndex(t, ds, 4)
	defer idx.Close()
	n0 := idx.Len()
	vec := make([]float32, idx.Dim())
	copy(vec, idx.Vector(5))
	id, err := idx.Add(vec)
	if err != nil {
		t.Fatal(err)
	}
	if id != int32(n0) || idx.Len() != n0+1 {
		t.Fatalf("id = %d, len = %d; want %d, %d", id, idx.Len(), n0, n0+1)
	}
	ids, _ := idx.SearchWithPool(vec, 2, 50)
	found := false
	for _, got := range ids {
		if got == id || got == 5 {
			found = true
		}
	}
	if !found {
		t.Errorf("added vector not found near itself: %v", ids)
	}
	if _, err := idx.Add(make([]float32, 3)); err == nil {
		t.Error("expected dim-mismatch error")
	}
}

func TestShardedStatsAndBatch(t *testing.T) {
	ds := shardedTestData(t, 1000, 16)
	idx := buildShardedIndex(t, ds, 4)
	defer idx.Close()

	st := idx.Stats()
	if st.N != 1000 || st.Shards != 4 || len(st.ShardSizes) != 4 || st.IndexBytes <= 0 {
		t.Fatalf("bad stats: %+v", st)
	}
	total := 0
	for _, s := range st.ShardSizes {
		total += s
	}
	if total != 1000 {
		t.Fatalf("shard sizes sum to %d, want 1000", total)
	}

	q := ds.Queries.Row(0)
	ids, dists, sst := idx.SearchWithStats(q, 10, 50)
	if len(ids) != 10 || len(dists) != 10 {
		t.Fatalf("got %d ids, %d dists", len(ids), len(dists))
	}
	if sst.Hops < idx.Shards() || sst.DistanceComputations == 0 {
		t.Fatalf("merged stats implausible: %+v", sst)
	}

	queries := make([][]float32, ds.Queries.Rows)
	for i := range queries {
		queries[i] = ds.Queries.Row(i)
	}
	for _, workers := range []int{0, 1, 3} {
		batch := idx.SearchBatch(queries, 10, 50, workers)
		if len(batch) != len(queries) {
			t.Fatalf("workers=%d: got %d results", workers, len(batch))
		}
		for i, r := range batch {
			want, _ := idx.SearchWithPool(queries[i], 10, 50)
			for j := range want {
				if r.IDs[j] != want[j] {
					t.Fatalf("workers=%d query %d pos %d: %d vs %d", workers, i, j, r.IDs[j], want[j])
				}
			}
		}
	}
}
