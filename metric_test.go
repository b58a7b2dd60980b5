package nsg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/vecmath"
)

func TestMetricString(t *testing.T) {
	if L2.String() != "l2" || Cosine.String() != "cosine" || InnerProduct.String() != "inner-product" {
		t.Error("metric names wrong")
	}
	if Metric(99).String() == "" {
		t.Error("unknown metric must still render")
	}
}

// buildMetric builds vecs under metric m with exact kNN graphs.
func buildMetric(t *testing.T, vecs [][]float32, m Metric, shards int) *Index {
	t.Helper()
	opts := DefaultOptions()
	opts.ExactKNN, opts.Metric, opts.Shards = true, m, shards
	idx, err := Build(vecs, opts)
	if err != nil {
		t.Fatalf("%v: %v", m, err)
	}
	t.Cleanup(idx.Close)
	return idx
}

func TestBuildMetricValidation(t *testing.T) {
	if _, err := Build(nil, Options{Metric: Cosine}); err == nil {
		t.Error("expected error on empty input")
	}
	for _, m := range []Metric{3, 42, -1} {
		if _, err := Build([][]float32{{1}, {2}}, Options{Metric: m}); err == nil {
			t.Errorf("metric %v: expected an unknown-metric error", m)
		}
	}
}

func TestCosineMetric(t *testing.T) {
	// Vectors along distinct directions with varying magnitudes: cosine
	// must ignore magnitude.
	vecs := [][]float32{
		{10, 0, 0},  // 0: along x, large
		{0.1, 0, 0}, // 1: along x, tiny
		{0, 5, 0},   // 2: along y
		{0, 0, 2},   // 3: along z
		{3, 3, 0},   // 4: diagonal xy
		{0, 4, 4},   // 5: diagonal yz
	}
	idx := buildMetric(t, vecs, Cosine, 1)
	ids, scores := idx.Search([]float32{1, 0.01, 0}, 2)
	// Both x-aligned vectors must rank first regardless of magnitude.
	got := map[int32]bool{ids[0]: true, ids[1]: true}
	if !got[0] || !got[1] {
		t.Errorf("cosine top-2 = %v, want {0,1}", ids)
	}
	if scores[0] < 0.99 {
		t.Errorf("top cosine score = %v, want ~1", scores[0])
	}
	if v := idx.Vector(0); !slices.Equal(v, []float32{1, 0, 0}) {
		t.Errorf("Vector(0) = %v, want the unit row", v)
	}
}

func TestInnerProductMetric(t *testing.T) {
	// MIPS must prefer large-norm aligned vectors — the case plain L2 gets
	// wrong.
	vecs := [][]float32{
		{1, 0},  // 0: small aligned
		{10, 0}, // 1: large aligned — the MIPS answer
		{0, 1},  // 2: orthogonal
		{-5, 0}, // 3: anti-aligned
	}
	idx := buildMetric(t, vecs, InnerProduct, 1)
	q := []float32{1, 0}
	ids, scores := idx.Search(q, 1)
	if ids[0] != 1 {
		t.Fatalf("MIPS answer = %d, want 1 (the large-norm vector)", ids[0])
	}
	if scores[0] != 10 {
		t.Errorf("MIPS score = %v, want 10", scores[0])
	}
	if idx.Dim() != 2 || !slices.Equal(idx.Vector(3), vecs[3]) {
		t.Errorf("Dim %d, Vector(3) %v: want the caller's 2-dim row %v", idx.Dim(), idx.Vector(3), vecs[3])
	}
}

// metricVectors draws n centered vectors with norms varied over ~30x, so
// the inner-product reduction's radius matters and cosine ignores scale.
func metricVectors(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, dim)
		scale := rng.Float32()*3 + 0.1
		for j := range v {
			v[j] = (rng.Float32() - 0.5) * scale
		}
		out[i] = v
	}
	return out
}

func TestInnerProductMatchesBruteForce(t *testing.T) {
	const dim = 16
	vecs := metricVectors(800, dim, 9)
	rng := rand.New(rand.NewSource(10))
	for _, shards := range []int{1, 3} {
		idx := buildMetric(t, vecs, InnerProduct, shards)
		hits := 0
		trials := 30
		for trial := 0; trial < trials; trial++ {
			q := make([]float32, dim)
			for j := range q {
				q[j] = rng.Float32() - 0.5
			}
			best, bestDot := -1, float32(math.Inf(-1))
			for i, v := range vecs {
				var dot float32
				for j := range v {
					dot += v[j] * q[j]
				}
				if dot > bestDot {
					best, bestDot = i, dot
				}
			}
			ids, _ := idx.SearchWithPool(q, 1, 100*shards)
			if int(ids[0]) == best {
				hits++
			}
		}
		if hits < trials*8/10 {
			t.Errorf("%d shards: MIPS top-1 agreement %d/%d, want >= 80%%", shards, hits, trials)
		}
	}
}

// TestL2MetricMatchesPlainIndex: an explicit L2 index is the default
// index: the same answers and the same saved bytes.
func TestL2MetricMatchesPlainIndex(t *testing.T) {
	vecs := randomVectors(400, 8, 10)
	a := buildMetric(t, vecs, L2, 1)
	opts := DefaultOptions()
	opts.ExactKNN = true
	b, err := Build(vecs, opts)
	if err != nil {
		t.Fatal(err)
	}
	q := vecs[7]
	aIDs, aD := a.SearchWithPool(q, 5, 50)
	bIDs, bD := b.SearchWithPool(q, 5, 50)
	if searchSig(aIDs, aD) != searchSig(bIDs, bD) {
		t.Fatalf("L2 metric index diverges from plain index: %v vs %v", aIDs, bIDs)
	}
	if a.Len() != 400 || a.Dim() != 8 {
		t.Error("accessors wrong")
	}
	var files [2]bytes.Buffer
	for i, x := range []*Index{a, b} {
		if err := x.write(&files[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(files[0].Bytes(), files[1].Bytes()) {
		t.Error("an explicit L2 index writes other bytes than the default one")
	}
}

func TestMetricQueryDimPanics(t *testing.T) {
	vecs := randomVectors(100, 4, 11)
	for _, m := range []Metric{Cosine, InnerProduct} {
		idx := buildMetric(t, vecs, m, 1)
		// An inner-product index stores 5-dim rows; a 5-dim query is still
		// the wrong dimension.
		for _, dim := range []int{3, 5, 9} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%v: no panic on a %d-dim query", m, dim)
					}
				}()
				idx.Search(make([]float32, dim), 1)
			}()
		}
	}
}

// metricGolden digests the ids and score bits of Search and SearchWithPool
// answers under each metric over a seeded corpus. The digests were
// recorded from the metric index type that Options.Metric replaced, so they
// hold the folded reduction to its answers bit for bit.
var metricGolden = map[Metric]uint64{
	L2:           0x7d5c934e69cc7265,
	Cosine:       0xaaa7192e6339a1e8,
	InnerProduct: 0xf3216cf6e624dcc5,
}

func TestMetricSearchGolden(t *testing.T) {
	vecs := metricVectors(600, 16, 21)
	queries := metricVectors(25, 16, 22)
	for m, want := range metricGolden {
		opts := DefaultOptions()
		opts.ExactKNN, opts.Seed, opts.Metric = true, 5, m
		idx, err := Build(vecs, opts)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var b [4]byte
		for _, q := range queries {
			for _, l := range []int{0, 15, 80} {
				ids, scores := idx.SearchWith(q, 10, SearchParams{L: l})
				for i := range ids {
					binary.LittleEndian.PutUint32(b[:], uint32(ids[i]))
					h.Write(b[:])
					binary.LittleEndian.PutUint32(b[:], math.Float32bits(scores[i]))
					h.Write(b[:])
				}
			}
		}
		if got := h.Sum64(); got != want {
			t.Errorf("%v: digest %#016x, want %#016x", m, got, want)
		}
	}
}

// TestInnerProductAddBeyondRadius: an inner-product Add longer than the
// radius (the longest row at build) returns ErrNormExceedsRadius and adds
// nothing; the longest row itself, and a shorter one, go in and score
// their exact dot products.
func TestInnerProductAddBeyondRadius(t *testing.T) {
	vecs := metricVectors(300, 8, 12)
	longest := vecs[0]
	for _, v := range vecs {
		if vecmath.Norm(v) > vecmath.Norm(longest) {
			longest = v
		}
	}
	for _, shards := range []int{1, 3} {
		idx := buildMetric(t, vecs, InnerProduct, shards)
		far := slices.Clone(longest)
		for j := range far {
			far[j] *= 1.01
		}
		if id, err := idx.Add(far); !errors.Is(err, ErrNormExceedsRadius) || id != -1 {
			t.Fatalf("%d shards: Add beyond the radius = %d, %v; want -1, ErrNormExceedsRadius", shards, id, err)
		}
		if idx.Len() != len(vecs) || idx.MaintenanceStats().Pending != 0 {
			t.Fatalf("%d shards: the refused Add changed the index: %d rows, %d pending", shards, idx.Len(), idx.MaintenanceStats().Pending)
		}
		for _, v := range [][]float32{longest, vecs[1]} {
			id, err := idx.Add(v)
			if err != nil {
				t.Fatalf("%d shards: Add inside the radius: %v", shards, err)
			}
			if !slices.Equal(idx.Vector(int(id)), v) {
				t.Fatalf("%d shards: Vector(%d) = %v, want %v", shards, id, idx.Vector(int(id)), v)
			}
		}
	}
}

// TestMetricLiveAddDelete: a Cosine index — built, or reopened by Load or
// OpenMapped — takes Add and Delete from one goroutine while others search
// it, and every answer holds cosine scores in [-1, 1], best first; after
// the writes, each added row is its own best match, no deleted id is
// returned, and Compact rebuilds from the stored unit rows without
// normalizing them again.
func TestMetricLiveAddDelete(t *testing.T) {
	const n, extra = 400, 120
	vecs := metricVectors(n+extra, 12, 13)
	built := buildMetric(t, vecs[:n], Cosine, 3)
	path := filepath.Join(t.TempDir(), "cosine.nsg")
	if err := built.Save(path); err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]func() (*Index, error){
		"built":      func() (*Index, error) { return built, nil },
		"Load":       func() (*Index, error) { return Load(path) },
		"OpenMapped": func() (*Index, error) { return OpenMapped(path, MapOptions{}) },
	} {
		idx, err := open()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer idx.Close()
		if err := idx.EnableLiveUpdates(LiveOptions{MaxPending: 16}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		done := make(chan struct{})
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ids, scores := make([]int32, 0, 10), make([]float32, 0, 10)
				for i := 0; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					ids, scores = idx.SearchWith(vecs[(g*37+i)%(n+extra)], 10, SearchParams{IDs: ids, Dists: scores})
					for j, s := range scores {
						if s < -1.0001 || s > 1.0001 || (j > 0 && s > scores[j-1]) {
							t.Errorf("%s: score %d of %v is not a cosine, best first", name, j, scores)
							return
						}
					}
				}
			}(g)
		}
		for i := n; i < n+extra; i++ {
			id, err := idx.Add(vecs[i])
			if err != nil {
				t.Fatal(err)
			}
			if id != int32(i) {
				t.Fatalf("%s: Add %d returned id %d", name, i, id)
			}
			if i%4 == 0 {
				if err := idx.Delete(int32(i - n)); err != nil {
					t.Fatal(err)
				}
			}
		}
		close(done)
		wg.Wait()
		idx.Flush()
		for i := n; i < n+extra; i++ {
			if ids, scores := idx.SearchWithPool(vecs[i], 1, 60); len(ids) != 1 || ids[0] != int32(i) || scores[0] < 0.9999 {
				t.Fatalf("%s: added row %d: best match %v %v, want itself at cosine 1", name, i, ids, scores)
			}
			if d := i - n; i%4 == 0 {
				if ids, _ := idx.SearchWithPool(vecs[d], 5, 60); slices.Contains(ids, int32(d)) {
					t.Fatalf("%s: deleted id %d answered %v", name, d, ids)
				}
			}
		}
		stored := make([][]float32, n+extra)
		for i := range stored {
			stored[i] = slices.Clone(idx.Vector(i))
		}
		remap, err := idx.Compact()
		if err != nil {
			t.Fatal(err)
		}
		for old, id := range remap {
			if id >= 0 && !slices.Equal(idx.Vector(int(id)), stored[old]) {
				t.Fatalf("%s: after Compact, row %d reads %v, want the stored %v", name, old, idx.Vector(int(id)), stored[old])
			}
		}
	}
}
