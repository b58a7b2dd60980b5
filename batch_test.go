package nsg

import (
	"path/filepath"
	"testing"
	"time"
)

// TestSearchBatchMatchesSerial is the batch contract: every SearchBatch*
// entry point is a worker pool over the serial search, so for every serving
// shape and every worker count each answer equals the serial call's — ids
// and distances bit for bit.
func TestSearchBatchMatchesSerial(t *testing.T) {
	const n, dim, k, l = 900, 12, 5, 40
	vecs := randomVectors(n, dim, 12)
	queries := randomVectors(41, dim, 13)
	opts := DefaultOptions()
	opts.ExactKNN = true

	build := func(t *testing.T, quantize QuantMode) *Index {
		t.Helper()
		o := opts
		o.Quantize = quantize
		idx, err := Build(vecs, o)
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	type surface struct {
		serial func(q []float32) ([]int32, []float32)
		batch  func(workers int) []BatchResult
	}
	plain := func(idx interface {
		SearchWithPool(q []float32, k, l int) ([]int32, []float32)
		SearchBatch(queries [][]float32, k, l, workers int) []BatchResult
	}) surface {
		return surface{
			serial: func(q []float32) ([]int32, []float32) { return idx.SearchWithPool(q, k, l) },
			batch:  func(w int) []BatchResult { return idx.SearchBatch(queries, k, l, w) },
		}
	}
	cases := []struct {
		name string
		open func(t *testing.T) surface
	}{
		{"float32", func(t *testing.T) surface { return plain(build(t, QuantNone)) }},
		{"sq8", func(t *testing.T) surface { return plain(build(t, QuantSQ8)) }},
		{"tombstoned", func(t *testing.T) surface {
			idx := build(t, QuantNone)
			for _, q := range queries[:6] {
				ids, _ := idx.SearchWithPool(q, 1, l)
				if err := idx.Delete(ids[0]); err != nil {
					t.Fatal(err)
				}
			}
			return plain(idx)
		}},
		{"live-delta-tombstones", func(t *testing.T) surface {
			idx, err := Build(vecs[:n-40], opts)
			if err != nil {
				t.Fatal(err)
			}
			// A huge publish interval and pending cap keep the appended rows
			// in the delta buffer, so every search sees one stable snapshot
			// + delta.
			if err := idx.EnableLiveUpdates(LiveOptions{PublishInterval: time.Hour, MaxPending: 1 << 20}); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(idx.Close)
			for _, v := range vecs[n-40:] {
				if _, err := idx.Add(v); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range []int32{7, int32(n - 3)} { // one snapshot row, one delta row
				if err := idx.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			return plain(idx)
		}},
		{"mapped", func(t *testing.T) surface {
			path := filepath.Join(t.TempDir(), "idx.nsgm")
			if err := build(t, QuantSQ8).SaveMapped(path); err != nil {
				t.Fatal(err)
			}
			idx, err := OpenMapped(path, MapOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(idx.Close)
			return plain(idx)
		}},
		{"metric-cosine", func(t *testing.T) surface {
			idx, err := BuildMetric(vecs, Cosine, opts)
			if err != nil {
				t.Fatal(err)
			}
			return plain(idx)
		}},
		{"index-filter", func(t *testing.T) surface {
			idx := build(t, QuantNone)
			attachTestMetadata(t, idx.SetMetadata, n)
			f, err := idx.CompileFilter(HasTag("tags", "even"))
			if err != nil {
				t.Fatal(err)
			}
			return surface{
				serial: func(q []float32) ([]int32, []float32) { return idx.SearchFilteredWithPool(q, k, l, f) },
				batch:  func(w int) []BatchResult { return idx.SearchBatchFiltered(queries, k, l, w, f) },
			}
		}},
		{"sharded", func(t *testing.T) surface { return plain(buildShardedVectors(t, vecs, opts)) }},
		{"sharded-filter", func(t *testing.T) surface {
			idx := buildShardedVectors(t, vecs, opts)
			attachTestMetadata(t, idx.SetMetadata, n)
			f, err := idx.CompileFilter(Eq("category", "cat2"))
			if err != nil {
				t.Fatal(err)
			}
			return surface{
				serial: func(q []float32) ([]int32, []float32) { return idx.SearchFilteredWithPool(q, k, l, f) },
				batch:  func(w int) []BatchResult { return idx.SearchBatchFiltered(queries, k, l, w, f) },
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.open(t)
			want := make([]string, len(queries))
			for i, q := range queries {
				ids, dists := s.serial(q)
				if len(ids) != k {
					t.Fatalf("serial query %d: %d results, want %d", i, len(ids), k)
				}
				want[i] = searchSig(ids, dists)
			}
			// The GOMAXPROCS default, the inline single worker, a count that
			// leaves ragged chunks, and more workers than queries.
			for _, workers := range []int{0, 1, 3, len(queries) + 5} {
				got := s.batch(workers)
				if len(got) != len(queries) {
					t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(queries))
				}
				for i := range got {
					if sig := searchSig(got[i].IDs, got[i].Dists); sig != want[i] {
						t.Fatalf("workers=%d query %d: batch %s != serial %s", workers, i, sig, want[i])
					}
				}
			}
		})
	}
}

// buildShardedVectors builds a 4-shard index that the test closes on exit.
func buildShardedVectors(t *testing.T, vecs [][]float32, shard Options) *ShardedIndex {
	t.Helper()
	idx, err := BuildSharded(vecs, ShardedOptions{Shards: 4, Shard: shard})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Close)
	return idx
}

func TestSearchBatchWorkerEdgeCases(t *testing.T) {
	vecs := randomVectors(200, 6, 14)
	opts := DefaultOptions()
	opts.ExactKNN = true
	idx, err := Build(vecs, opts)
	if err != nil {
		t.Fatal(err)
	}
	queries := randomVectors(3, 6, 15)
	for _, workers := range []int{0, 1, 100} {
		got := idx.SearchBatch(queries, 2, 20, workers)
		if len(got) != 3 || len(got[0].IDs) != 2 {
			t.Fatalf("workers=%d: shape wrong", workers)
		}
	}
	if got := idx.SearchBatch(nil, 2, 20, 4); len(got) != 0 {
		t.Error("empty batch should return empty results")
	}
}

func TestMetricSearchBatchMatchesSerial(t *testing.T) {
	vecs := randomVectors(600, 10, 16)
	opts := DefaultOptions()
	opts.ExactKNN = true
	for _, metric := range []Metric{L2, Cosine, InnerProduct} {
		idx, err := BuildMetric(vecs, metric, opts)
		if err != nil {
			t.Fatalf("%v: %v", metric, err)
		}
		queries := randomVectors(25, 10, 17)
		batch := idx.SearchBatch(queries, 5, 40, 4)
		if len(batch) != len(queries) {
			t.Fatalf("%v: batch results = %d, want %d", metric, len(batch), len(queries))
		}
		for i, q := range queries {
			ids, scores := idx.SearchWithPool(q, 5, 40)
			if len(batch[i].IDs) != len(ids) {
				t.Fatalf("%v query %d: batch %d results vs serial %d", metric, i, len(batch[i].IDs), len(ids))
			}
			for j := range ids {
				if batch[i].IDs[j] != ids[j] || batch[i].Dists[j] != scores[j] {
					t.Fatalf("%v query %d: batch %v/%v vs serial %v/%v", metric, i, batch[i].IDs, batch[i].Dists, ids, scores)
				}
			}
		}
	}
}

// TestSearchBatchDimMismatchPanics: every batch entry point must reject a
// malformed query up front, on the caller's goroutine, before any fan-out.
func TestSearchBatchDimMismatchPanics(t *testing.T) {
	const n = 200
	vecs := randomVectors(n, 8, 22)
	opts := DefaultOptions()
	opts.ExactKNN = true
	idx, err := Build(vecs, opts)
	if err != nil {
		t.Fatal(err)
	}
	attachTestMetadata(t, idx.SetMetadata, n)
	f, err := idx.CompileFilter(HasTag("tags", "even"))
	if err != nil {
		t.Fatal(err)
	}
	midx, err := BuildMetric(vecs, Cosine, opts)
	if err != nil {
		t.Fatal(err)
	}
	sidx := buildShardedVectors(t, vecs, opts)
	attachTestMetadata(t, sidx.SetMetadata, n)
	sf, err := sidx.CompileFilter(HasTag("tags", "even"))
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]float32{make([]float32, 8), make([]float32, 3)}
	for name, call := range map[string]func(workers int){
		"Index.SearchBatch":                func(w int) { idx.SearchBatch(bad, 2, 10, w) },
		"Index.SearchBatchFiltered":        func(w int) { idx.SearchBatchFiltered(bad, 2, 10, w, f) },
		"MetricIndex.SearchBatch":          func(w int) { midx.SearchBatch(bad, 2, 10, w) },
		"ShardedIndex.SearchBatch":         func(w int) { sidx.SearchBatch(bad, 2, 10, w) },
		"ShardedIndex.SearchBatchFiltered": func(w int) { sidx.SearchBatchFiltered(bad, 2, 10, w, sf) },
	} {
		for _, workers := range []int{1, 2} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s(workers=%d) accepted a bad dim", name, workers)
					}
				}()
				call(workers)
			}()
		}
	}
}
