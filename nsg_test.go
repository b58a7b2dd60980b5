package nsg

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/vecmath"
)

func randomVectors(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32()
		}
		out[i] = v
	}
	return out
}

func bruteforce(vectors [][]float32, q []float32, k int) []int32 {
	type pair struct {
		id int32
		d  float32
	}
	best := make([]pair, 0, len(vectors))
	for i, v := range vectors {
		var d float32
		for j := range v {
			diff := v[j] - q[j]
			d += diff * diff
		}
		best = append(best, pair{int32(i), d})
	}
	for i := 0; i < k; i++ {
		min := i
		for j := i + 1; j < len(best); j++ {
			if best[j].d < best[min].d {
				min = j
			}
		}
		best[i], best[min] = best[min], best[i]
	}
	out := make([]int32, k)
	for i := 0; i < k; i++ {
		out[i] = best[i].id
	}
	return out
}

func TestBuildAndSearch(t *testing.T) {
	vecs := randomVectors(2000, 24, 1)
	idx, err := Build(vecs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 2000 || idx.Dim() != 24 {
		t.Fatalf("shape %dx%d", idx.Len(), idx.Dim())
	}
	queries := randomVectors(50, 24, 2)
	hits, total := 0, 0
	for _, q := range queries {
		want := bruteforce(vecs, q, 10)
		truth := map[int32]bool{}
		for _, id := range want {
			truth[id] = true
		}
		ids, dists := idx.Search(q, 10)
		if len(ids) != 10 || len(dists) != 10 {
			t.Fatalf("got %d ids %d dists", len(ids), len(dists))
		}
		for i := 1; i < len(dists); i++ {
			if dists[i] < dists[i-1] {
				t.Fatal("distances not ascending")
			}
		}
		for _, id := range ids {
			total++
			if truth[id] {
				hits++
			}
		}
	}
	recall := float64(hits) / float64(total)
	if recall < 0.9 {
		t.Errorf("public API recall@10 = %.3f, want >= 0.9", recall)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, DefaultOptions()); err == nil {
		t.Error("expected error on empty input")
	}
	if _, err := Build([][]float32{{1}}, DefaultOptions()); err == nil {
		t.Error("expected error on single vector")
	}
	if _, err := BuildFromFlat([]float32{1, 2, 3}, 2, DefaultOptions()); err == nil {
		t.Error("expected error on misaligned flat data")
	}
	if _, err := BuildFromFlat([]float32{1, 2}, 2, DefaultOptions()); err == nil {
		t.Error("expected error on single flat vector")
	}
}

func TestBuildFromFlat(t *testing.T) {
	flat := make([]float32, 500*8)
	rng := rand.New(rand.NewSource(3))
	for i := range flat {
		flat[i] = rng.Float32()
	}
	opts := DefaultOptions()
	opts.ExactKNN = true
	idx, err := BuildFromFlat(flat, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 500 || idx.Dim() != 8 {
		t.Fatalf("shape %dx%d", idx.Len(), idx.Dim())
	}
	q := idx.Vector(7)
	ids, dists := idx.Search(q, 1)
	if ids[0] != 7 || dists[0] != 0 {
		t.Errorf("self-query returned %d at %v", ids[0], dists[0])
	}
}

func TestSearchWithPoolTradesAccuracy(t *testing.T) {
	vecs := randomVectors(1500, 16, 4)
	idx, err := Build(vecs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	queries := randomVectors(30, 16, 5)
	recallAt := func(l int) float64 {
		hits, total := 0, 0
		for _, q := range queries {
			want := bruteforce(vecs, q, 10)
			truth := map[int32]bool{}
			for _, id := range want {
				truth[id] = true
			}
			ids, _ := idx.SearchWithPool(q, 10, l)
			for _, id := range ids {
				total++
				if truth[id] {
					hits++
				}
			}
		}
		return float64(hits) / float64(total)
	}
	if lo, hi := recallAt(10), recallAt(150); hi < lo-0.02 {
		t.Errorf("recall should rise with pool size: l=10 %.3f, l=150 %.3f", lo, hi)
	}
}

// reopeners are the two distinct ways to reopen a saved file: Load, which
// verifies it, and OpenMapped with NoVerify, which trusts it.
var reopeners = []struct {
	name     string
	open     func(string) (*Index, error)
	noVerify bool
}{
	{"Load", Load, false},
	{"OpenMapped/noverify", func(path string) (*Index, error) { return OpenMapped(path, MapOptions{NoVerify: true}) }, true},
}

// TestSaveLoadRoundTrip: Load(Save(x)) and a NoVerify
// OpenMapped(Save(x)), for {L2, Cosine, InnerProduct} x {1, 3 shards} x
// {float32, SQ8} x {no metadata, metadata}, answer as x does — ids,
// distance bits, hops and evaluations (a NoVerify SQ8 open's rerank may
// evaluate more), plain and filtered — and take every mutation: live
// updates, Add, Delete (Save refuses while it is pending, and writes
// nothing) and Compact, and a second Save that loads again. None of them
// changes the file they were opened from.
func TestSaveLoadRoundTrip(t *testing.T) {
	ds := shardedTestData(t, 600, 10)
	dir := t.TempDir()
	// The row Add inserts: a query, which is its own nearest neighbor under
	// L2 and Cosine; under InnerProduct the query scaled onto the radius
	// (the longest base row), which no other row's dot product can beat.
	added := map[Metric][]float32{L2: ds.Queries.Row(0), Cosine: ds.Queries.Row(0)}
	var radius float32
	for i := range ds.Base.Rows {
		radius = max(radius, vecmath.Norm(ds.Base.Row(i)))
	}
	added[InnerProduct] = slices.Clone(ds.Queries.Row(0))
	for j, s := 0, radius/vecmath.Norm(ds.Queries.Row(0)); j < ds.Base.Dim; j++ {
		added[InnerProduct][j] *= s
	}
	for _, cfg := range []struct {
		metric Metric
		shards int
	}{{L2, 1}, {L2, 3}, {Cosine, 1}, {Cosine, 3}, {InnerProduct, 1}, {InnerProduct, 3}} {
		shards, metric := cfg.shards, cfg.metric
		for _, q := range []QuantMode{QuantNone, QuantSQ8} {
			opts := DefaultShardedOptions(shards)
			opts.Shard.ExactKNN, opts.Shard.Seed, opts.Shard.Quantize, opts.Shard.Metric = true, 3, q, metric
			x, err := BuildShardedFromFlat(append([]float32(nil), ds.Base.Data...), ds.Base.Dim, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer x.Close()
			for _, md := range []string{"plain", "meta"} {
				name := fmt.Sprintf("%v/%d/%s/%s", metric, shards, q, md)
				var f *Filter
				if md == "meta" {
					if err := x.SetMetadata(parityMetadata(x.Len())); err != nil {
						t.Fatal(err)
					}
					if f, err = x.CompileFilter(Eq("category", "c3")); err != nil {
						t.Fatal(err)
					}
				}
				path := filepath.Join(dir, "index.nsg")
				if err := x.Save(path); err != nil {
					t.Fatal(err)
				}
				file, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				for _, open := range reopeners {
					name := name + "/" + open.name
					got, err := open.open(path)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					defer got.Close()
					if got.Len() != x.Len() || got.Dim() != x.Dim() || got.Shards() != shards {
						t.Fatalf("%s: %d shards of %dx%d", name, got.Shards(), got.Len(), got.Dim())
					}
					var fg *Filter
					if f != nil {
						if fg, err = got.CompileFilter(Eq("category", "c3")); err != nil {
							t.Fatal(err)
						}
					}
					// A NoVerify SQ8 open never measures ρ, the error bound's
					// stored-row term, so its rerank scores every pool row: the
					// same answers and hops, with at least as many evaluations.
					rhoUnknown := open.noVerify && q == QuantSQ8
					sameWork := func(a, b SearchStats) bool {
						return a == b || rhoUnknown && a.Hops == b.Hops && b.DistanceComputations >= a.DistanceComputations
					}
					for qi := 0; qi < ds.Queries.Rows; qi++ {
						qv := ds.Queries.Row(qi)
						aIDs, aD, aSt := x.SearchWithStats(qv, 10, 60)
						bIDs, bD, bSt := got.SearchWithStats(qv, 10, 60)
						if searchSig(aIDs, aD) != searchSig(bIDs, bD) || !sameWork(aSt, bSt) {
							t.Fatalf("%s: query %d answers %s %+v, want %s %+v", name, qi, searchSig(bIDs, bD), bSt, searchSig(aIDs, aD), aSt)
						}
						if f == nil {
							continue
						}
						aIDs, aD, aSt = filteredStats(x, qv, 10, 60, f)
						bIDs, bD, bSt = filteredStats(got, qv, 10, 60, fg)
						if searchSig(aIDs, aD) != searchSig(bIDs, bD) || !sameWork(aSt, bSt) {
							t.Fatalf("%s: filtered query %d answers %s %+v, want %s %+v", name, qi, searchSig(bIDs, bD), bSt, searchSig(aIDs, aD), aSt)
						}
					}
					if err := got.EnableLiveUpdates(LiveOptions{}); err != nil {
						t.Fatalf("%s: EnableLiveUpdates: %v", name, err)
					}
					id, err := got.Add(added[metric])
					if err != nil {
						t.Fatalf("%s: Add: %v", name, err)
					}
					got.Flush()
					if ids, _ := got.SearchWithPool(ds.Queries.Row(0), 1, 60); len(ids) != 1 || ids[0] != id {
						t.Fatalf("%s: the added row %d is not the query's best match: %v", name, id, ids)
					}
					if err := got.Delete(5); err != nil {
						t.Fatalf("%s: Delete: %v", name, err)
					}
					again := filepath.Join(t.TempDir(), "again.nsg")
					if err := got.Save(again); !errors.Is(err, ErrUncompactedDeletes) {
						t.Fatalf("%s: Save with a Delete pending: got %v, want ErrUncompactedDeletes", name, err)
					}
					if _, err := os.Stat(again); !errors.Is(err, os.ErrNotExist) {
						t.Fatalf("%s: the refused Save left a file behind: %v", name, err)
					}
					if _, err := got.Compact(); err != nil {
						t.Fatalf("%s: Compact: %v", name, err)
					}
					if err := got.Save(again); err != nil {
						t.Fatalf("%s: second Save: %v", name, err)
					}
					re, err := Load(again)
					if err != nil {
						t.Fatalf("%s: Load of the second Save: %v", name, err)
					}
					if re.Len() != x.Len() {
						t.Fatalf("%s: the second Save holds %d rows, want %d", name, re.Len(), x.Len())
					}
					re.Close()
					if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, file) {
						t.Fatalf("%s: the writes on the reopened index changed its file (%v)", name, err)
					}
				}
			}
		}
	}
}

// TestReopenedIndexKeepsDegreeCap: the file stores the degree cap, so an
// index reopened by Load or OpenMapped inserts under the cap it was built
// with, exactly as the index that was saved does.
func TestReopenedIndexKeepsDegreeCap(t *testing.T) {
	vecs := randomVectors(2300, 32, 41)
	opts := DefaultOptions()
	opts.MaxDegree = 10
	orig, err := Build(vecs[:2000], opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cap.nsg")
	if err := orig.Save(path); err != nil {
		t.Fatal(err)
	}
	indexes := []*Index{orig}
	for _, open := range reopeners {
		x, err := open.open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer x.Close()
		indexes = append(indexes, x)
	}
	for _, x := range indexes {
		for _, v := range vecs[2000:] {
			if _, err := x.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		x.Flush()
	}
	want := orig.Stats()
	// Insert may force one edge past the cap to keep a new row reachable.
	if want.MaxDegree > opts.MaxDegree+1 {
		t.Fatalf("built index grew to degree %d under cap %d", want.MaxDegree, opts.MaxDegree)
	}
	for i, open := range reopeners {
		if got := indexes[i+1].Stats(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: after the same Adds, stats %+v, want the saved index's %+v", open.name, got, want)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.nsg")); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestStats(t *testing.T) {
	vecs := randomVectors(600, 8, 7)
	opts := DefaultOptions()
	opts.MaxDegree = 12
	opts.ExactKNN = true
	idx, err := Build(vecs, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := idx.Stats()
	if st.N != 600 {
		t.Errorf("N = %d", st.N)
	}
	if st.MaxDegree > 13 {
		t.Errorf("max degree %d exceeds cap (+1 repair slack)", st.MaxDegree)
	}
	if st.IndexBytes <= 0 {
		t.Error("IndexBytes must be positive")
	}
}

// TestIndexBytesIsTheGraph: Stats().IndexBytes is what the CSR graphs
// hold, 4(n+1) + 4·edges bytes per shard (offsets and edge slab), and a
// loaded or mapped copy of the index reports what the built one does.
func TestIndexBytesIsTheGraph(t *testing.T) {
	ds := shardedTestData(t, 600, 1)
	for _, shards := range []int{1, 3} {
		x := buildShardedIndex(t, ds, shards)
		defer x.Close()
		var want int64
		for sh := range shards {
			g := x.s.shards[sh].FlatView()
			want += 4 * int64(g.N()+1+g.Edges())
		}
		path := filepath.Join(t.TempDir(), "index.nsg")
		if err := x.Save(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		defer loaded.Close()
		mapped, err := OpenMapped(path, MapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer mapped.Close()
		for name, y := range map[string]*Index{"built": x, "loaded": loaded, "mapped": mapped} {
			if got := y.Stats().IndexBytes; got != want {
				t.Errorf("%d shards, %s: IndexBytes %d, want 4(n+1) + 4·edges = %d", shards, name, got, want)
			}
		}
	}
}

func TestOptionsDefaultsFilled(t *testing.T) {
	vecs := randomVectors(300, 8, 8)
	idx, err := Build(vecs, Options{}) // all zero: defaults must apply
	if err != nil {
		t.Fatal(err)
	}
	ids, _ := idx.Search(vecs[0], 3)
	if len(ids) != 3 {
		t.Errorf("search with default options returned %d results", len(ids))
	}
}

// TestEveryIndexIsRelaid: every build path ends in the BFS relayout —
// Build and BuildFromFlat, float and SQ8, and the output of Compact — so
// each index's navigating node, the BFS root, is internal row 0, and
// Vector(id) still returns the caller's row id. For a sharded build this
// checks Vector(id); TestEveryShardIsRelaid checks each shard.
func TestEveryIndexIsRelaid(t *testing.T) {
	const n, dim = 600, 12
	vecs := randomVectors(n, dim, 40)
	checkRows := func(t *testing.T, vector func(int) []float32, want [][]float32) {
		t.Helper()
		for id, row := range want {
			if !slices.Equal(vector(id), row) {
				t.Fatalf("Vector(%d) is not the caller's row %d", id, id)
			}
		}
	}
	for _, quant := range []QuantMode{QuantNone, QuantSQ8} {
		opts := DefaultOptions()
		opts.Quantize = quant
		cases := []struct {
			name  string
			build func() (*Index, [][]float32, error)
		}{
			{"Build", func() (*Index, [][]float32, error) {
				idx, err := Build(vecs, opts)
				return idx, vecs, err
			}},
			{"BuildFromFlat", func() (*Index, [][]float32, error) {
				idx, err := BuildFromFlat(slices.Concat(vecs...), dim, opts)
				return idx, vecs, err
			}},
			{"Compact", func() (*Index, [][]float32, error) {
				idx, err := Build(vecs, opts)
				if err != nil {
					return nil, nil, err
				}
				for id := int32(0); id < n; id += 3 {
					if err := idx.Delete(id); err != nil {
						return nil, nil, err
					}
				}
				remap, err := idx.Compact()
				var want [][]float32
				for old, nw := range remap {
					if nw >= 0 {
						want = append(want, vecs[old])
					}
				}
				return idx, want, err
			}},
		}
		for _, c := range cases {
			t.Run(quant.String()+"/"+c.name, func(t *testing.T) {
				idx, want, err := c.build()
				if err != nil {
					t.Fatal(err)
				}
				if idx.s.shards[0].Navigating != 0 {
					t.Fatalf("navigating node is internal row %d, not 0: the index was not relaid", idx.s.shards[0].Navigating)
				}
				if idx.QuantMode() != quant {
					t.Fatalf("QuantMode %v, want %v", idx.QuantMode(), quant)
				}
				checkRows(t, idx.Vector, want)
			})
		}
		t.Run(quant.String()+"/Shards", func(t *testing.T) {
			so := opts
			so.Shards = 3
			idx, err := Build(vecs, so)
			if err != nil {
				t.Fatal(err)
			}
			defer idx.Close()
			checkRows(t, idx.Vector, vecs)
		})
	}
}

// TestVectorOutOfRange: Vector answers nil for any id outside [0, Len()) —
// negative, at Len, and past int32 — on a single index with rows pending
// in its delta and on a sharded one, and still returns the rows inside.
func TestVectorOutOfRange(t *testing.T) {
	vecs := randomVectors(300, 8, 41)
	opts := DefaultOptions()
	opts.GraphK, opts.BuildL, opts.MaxDegree = 10, 30, 12
	idx, err := Build(vecs[:250], opts)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if err := idx.EnableLiveUpdates(LiveOptions{MaxPending: 1 << 20, PublishInterval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	for _, v := range vecs[250:] {
		if _, err := idx.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if idx.MaintenanceStats().Pending == 0 {
		t.Fatal("no rows pending: the delta path is not exercised")
	}
	so := opts
	so.Shards = 2
	sharded, err := Build(vecs, so)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	for name, x := range map[string]interface {
		Len() int
		Vector(int) []float32
	}{"Index": idx, "ShardedIndex": sharded} {
		for _, id := range []int{-1, -1 << 40, x.Len(), 1 << 32, 1<<32 + 5} {
			if v := x.Vector(id); v != nil {
				t.Fatalf("%s.Vector(%d) = %v, want nil", name, id, v)
			}
		}
		for _, id := range []int{0, 5, x.Len() - 1} {
			if !slices.Equal(x.Vector(id), vecs[id]) {
				t.Fatalf("%s.Vector(%d) is not row %d", name, id, id)
			}
		}
	}
}
