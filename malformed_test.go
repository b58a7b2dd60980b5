package nsg

import (
	"errors"
	"math"
	"path/filepath"
	"testing"
	"time"
)

// TestMalformedSearch: every public search entry, on every index shape,
// answers a malformed (k, l) or a query with a NaN or infinite coordinate
// with an empty result, and a query of the wrong
// dimension panics on the caller's goroutine, where recover catches it. On a
// ShardedIndex either one used to panic on a shard worker instead, which no
// caller can recover: it killed the process.
func TestMalformedSearch(t *testing.T) {
	const n, extra = 600, 20
	ds := shardedTestData(t, n+extra, 2)
	vecs := make([][]float32, n+extra)
	for i := range vecs {
		vecs[i] = ds.Base.Row(i)
	}
	half := Range("sel", 0, 499)

	// searcher is one index shape's four methods.
	type searcher struct {
		name    string
		methods map[string]func(q []float32, k, l int) []int32
	}
	ids := func(ids []int32, _ []float32) []int32 { return ids }
	idsStats := func(ids []int32, _ []float32, _ SearchStats) []int32 { return ids }
	index := func(name string, idx *Index) searcher {
		f, err := idx.CompileFilter(half)
		if err != nil {
			t.Fatal(err)
		}
		return searcher{name, map[string]func([]float32, int, int) []int32{
			"SearchWithPool":         func(q []float32, k, l int) []int32 { return ids(idx.SearchWithPool(q, k, l)) },
			"SearchFilteredWithPool": func(q []float32, k, l int) []int32 { return ids(idx.SearchFilteredWithPool(q, k, l, f)) },
			"SearchWithStats":        func(q []float32, k, l int) []int32 { return idsStats(idx.SearchWithStats(q, k, l)) },
			"SearchWith":             func(q []float32, k, l int) []int32 { return idsStats(filteredStats(idx, q, k, l, f)) },
		}}
	}
	build := func(mode QuantMode) *Index {
		opts := DefaultOptions()
		opts.Quantize = mode
		idx, err := Build(vecs[:n], opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.SetMetadata(planMetadata(n)); err != nil {
			t.Fatal(err)
		}
		return idx
	}
	pending := LiveOptions{PublishInterval: time.Hour, MaxPending: 1 << 20}

	var shapes []searcher
	shapes = append(shapes, index("heap", build(QuantNone)))
	sq8 := build(QuantSQ8)
	shapes = append(shapes, index("SQ8", sq8))
	path := filepath.Join(t.TempDir(), "malformed.nsgm")
	if err := sq8.SaveMapped(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMapped(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	shapes = append(shapes, index("OpenMapped", mapped))
	liveIdx := build(QuantNone)
	if err := liveIdx.EnableLiveUpdates(pending); err != nil {
		t.Fatal(err)
	}
	defer liveIdx.Close()
	for i := n; i < n+extra; i++ {
		if _, err := liveIdx.AddWithMetadata(vecs[i], map[string]any{"sel": planSel(i)}); err != nil {
			t.Fatal(err)
		}
	}
	shapes = append(shapes, index("live with a pending delta", liveIdx))
	dead := build(QuantNone)
	for id := int32(0); id < n; id += 5 {
		if err := dead.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	shapes = append(shapes, index("tombstoned", dead))

	for _, live := range []bool{false, true} {
		sh, err := Build(vecs[:n], withShards(2))
		if err != nil {
			t.Fatal(err)
		}
		defer sh.Close()
		if err := sh.SetMetadata(planMetadata(n)); err != nil {
			t.Fatal(err)
		}
		name := "sharded heap"
		if live {
			name = "sharded live"
			if err := sh.EnableLiveUpdates(pending); err != nil {
				t.Fatal(err)
			}
			for i := n; i < n+extra; i++ {
				if _, err := sh.Add(vecs[i]); err != nil {
					t.Fatal(err)
				}
				if err := sh.Metadata().AppendRow(map[string]any{"sel": planSel(i)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		shapes = append(shapes, index(name, sh))
	}

	// call runs one search and reports what it panicked with, if anything.
	call := func(search func([]float32, int, int) []int32, q []float32, k, l int) (got []int32, panicked any) {
		defer func() { panicked = recover() }()
		return search(q, k, l), nil
	}
	q := ds.Queries.Row(0)
	for _, s := range shapes {
		for _, method := range []string{"SearchWithPool", "SearchFilteredWithPool", "SearchWithStats", "SearchWith"} {
			search := s.methods[method]
			t.Run(s.name+"/"+method, func(t *testing.T) {
				if got, p := call(search, q, 10, 40); p != nil || len(got) != 10 {
					t.Fatalf("well-formed query: %d results, panic %v", len(got), p)
				}
				for _, kl := range [][2]int{{0, 0}, {-1, 5}, {0, -1}} {
					if got, p := call(search, q, kl[0], kl[1]); p != nil || len(got) != 0 {
						t.Errorf("k=%d l=%d: %d results, panic %v; want none and no panic", kl[0], kl[1], len(got), p)
					}
				}
				for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
					nq := append([]float32(nil), q...)
					nq[len(nq)/2] = bad
					if got, p := call(search, nq, 10, 40); p != nil || len(got) != 0 {
						t.Errorf("query with a %v coordinate: %d results, panic %v; want none and no panic", bad, len(got), p)
					}
				}
				if _, p := call(search, q[:len(q)/2], 10, 40); p == nil {
					t.Error("a wrong-dimension query did not panic on the caller's goroutine")
				}
			})
		}
	}
}

// TestNonFiniteVectorsRejected: a NaN or infinite coordinate is refused with
// ErrNonFinite at every door a vector comes in by, before it changes
// anything: the builders, Add and AddWithMetadata, heap and live, single
// and sharded.
func TestNonFiniteVectorsRejected(t *testing.T) {
	const n = 300
	ds := shardedTestData(t, n+1, 2)
	vecs := make([][]float32, n)
	for i := range vecs {
		vecs[i] = ds.Base.Row(i)
	}
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		poisoned := append([]float32(nil), ds.Base.Row(n)...)
		poisoned[3] = bad
		withBad := append(append([][]float32(nil), vecs...), poisoned)
		flat := append([]float32(nil), ds.Base.Data[:(n+1)*ds.Base.Dim]...)
		flat[n*ds.Base.Dim+3] = bad

		if _, err := Build(withBad, DefaultOptions()); !errors.Is(err, ErrNonFinite) {
			t.Errorf("Build with a %v coordinate: err %v, want ErrNonFinite", bad, err)
		}
		if _, err := BuildFromFlat(flat, ds.Base.Dim, DefaultOptions()); !errors.Is(err, ErrNonFinite) {
			t.Errorf("BuildFromFlat with a %v coordinate: err %v, want ErrNonFinite", bad, err)
		}
		if _, err := Build(withBad, withShards(2)); !errors.Is(err, ErrNonFinite) {
			t.Errorf("sharded Build with a %v coordinate: err %v, want ErrNonFinite", bad, err)
		}
	}

	poisoned := append([]float32(nil), ds.Base.Row(n)...)
	poisoned[0] = float32(math.NaN())
	for _, live := range []bool{false, true} {
		idx, err := Build(vecs, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.SetMetadata(planMetadata(n)); err != nil {
			t.Fatal(err)
		}
		sh, err := Build(vecs, withShards(2))
		if err != nil {
			t.Fatal(err)
		}
		if live {
			if err := idx.EnableLiveUpdates(LiveOptions{}); err != nil {
				t.Fatal(err)
			}
			if err := sh.EnableLiveUpdates(LiveOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := idx.Add(poisoned); !errors.Is(err, ErrNonFinite) {
			t.Errorf("live=%v Index.Add: err %v, want ErrNonFinite", live, err)
		}
		if _, err := idx.AddWithMetadata(poisoned, map[string]any{"sel": int64(1)}); !errors.Is(err, ErrNonFinite) {
			t.Errorf("live=%v AddWithMetadata: err %v, want ErrNonFinite", live, err)
		}
		if _, err := sh.Add(poisoned); !errors.Is(err, ErrNonFinite) {
			t.Errorf("live=%v ShardedIndex.Add: err %v, want ErrNonFinite", live, err)
		}
		if idx.Len() != n || idx.Metadata().Rows() != n || sh.Len() != n {
			t.Errorf("live=%v: a refused Add changed the index: Len %d, metadata rows %d, sharded Len %d, want %d",
				live, idx.Len(), idx.Metadata().Rows(), sh.Len(), n)
		}
		idx.Close()
		sh.Close()
	}
}
