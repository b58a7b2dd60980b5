package core

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graphutil"
	"repro/internal/knngraph"
	"repro/internal/vecmath"
)

func buildTestNSG(t *testing.T, n, dim int, seed int64) (*NSG, dataset.Dataset) {
	t.Helper()
	ds, err := dataset.SIFTLike(dataset.Config{N: n, Queries: 50, GTK: 10, Dim: dim, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	knn, err := knngraph.BuildExact(ds.Base, 25)
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := NSGBuild(knn, ds.Base, BuildParams{L: 40, M: 25, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return idx, ds
}

func TestNSGBuildBasicInvariants(t *testing.T) {
	idx, _ := buildTestNSG(t, 800, 32, 1)
	st := idx.Stats()
	if st.N != 800 {
		t.Fatalf("N = %d", st.N)
	}
	if st.MaxDegree > 25+1 {
		// +1: the DFS repair may append one edge past the cap.
		t.Errorf("max degree %d exceeds cap", st.MaxDegree)
	}
	if st.AvgDegree <= 0 {
		t.Error("average degree must be positive")
	}
	for i, adj := range idx.flat.ToGraph().Adj {
		seen := map[int32]struct{}{}
		for _, v := range adj {
			if v == int32(i) {
				t.Fatalf("node %d has a self-edge", i)
			}
			if _, dup := seen[v]; dup {
				t.Fatalf("node %d has duplicate edge to %d", i, v)
			}
			seen[v] = struct{}{}
			if int(v) >= st.N || v < 0 {
				t.Fatalf("node %d has out-of-range edge %d", i, v)
			}
		}
	}
}

func TestNSGFullyReachable(t *testing.T) {
	// The paper's connectivity guarantee (Table 4: SCC=1 for NSG): every
	// node must be reachable from the navigating node after tree repair.
	idx, _ := buildTestNSG(t, 600, 16, 2)
	if got := idx.flat.ReachableFrom(idx.Navigating); got != 600 {
		t.Errorf("reachable = %d, want 600", got)
	}
}

func TestNSGHighRecall(t *testing.T) {
	idx, ds := buildTestNSG(t, 1000, 32, 3)
	k := 10
	got := make([][]int32, ds.Queries.Rows)
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		res := idx.Search(ds.Queries.Row(qi), k, 60, nil)
		ids := make([]int32, len(res))
		for i, n := range res {
			ids[i] = n.ID
		}
		got[qi] = ids
	}
	recall := dataset.MeanRecall(got, ds.GT, k)
	if recall < 0.95 {
		t.Errorf("NSG recall@10 = %.3f, want >= 0.95", recall)
	}
}

func TestNSGRecallImprovesWithPoolSize(t *testing.T) {
	// The l knob trades time for accuracy; recall must be monotone-ish.
	idx, ds := buildTestNSG(t, 1000, 32, 4)
	k := 10
	recallAt := func(l int) float64 {
		got := make([][]int32, ds.Queries.Rows)
		for qi := 0; qi < ds.Queries.Rows; qi++ {
			res := idx.Search(ds.Queries.Row(qi), k, l, nil)
			ids := make([]int32, len(res))
			for i, n := range res {
				ids[i] = n.ID
			}
			got[qi] = ids
		}
		return dataset.MeanRecall(got, ds.GT, k)
	}
	lo, hi := recallAt(10), recallAt(100)
	if hi < lo-0.02 {
		t.Errorf("recall at l=100 (%.3f) below recall at l=10 (%.3f)", hi, lo)
	}
	if hi < 0.97 {
		t.Errorf("recall at l=100 = %.3f, want >= 0.97", hi)
	}
}

func TestNSGNavigatingNodeNearCentroid(t *testing.T) {
	idx, ds := buildTestNSG(t, 500, 16, 5)
	centroid := vecmath.Centroid(ds.Base)
	navDist := vecmath.L2(centroid, ds.Base.Row(int(idx.Navigating)))
	// The navigating node must be among the closest few percent of points
	// to the centroid (it is found by approximate search).
	closer := 0
	for i := 0; i < ds.Base.Rows; i++ {
		if vecmath.L2(centroid, ds.Base.Row(i)) < navDist {
			closer++
		}
	}
	if closer > ds.Base.Rows/10 {
		t.Errorf("%d points closer to centroid than navigating node", closer)
	}
}

func TestNSGBuildValidation(t *testing.T) {
	base := vecmath.NewMatrix(10, 4)
	knn := graphutil.New(5) // wrong node count
	if _, _, err := NSGBuild(knn, base, DefaultBuildParams()); err == nil {
		t.Error("expected error for mismatched kNN graph")
	}
	if _, _, err := NSGBuild(graphutil.New(0), vecmath.Matrix{Dim: 4}, DefaultBuildParams()); err == nil {
		t.Error("expected error for empty base")
	}
}

// recordFile returns testdata/records/name: NSG stream records over
// pathBase, written by commit f33b21c, the last tree with a stream writer.
// path4.nsgq is the path graph 0-1-2-3 (navigating node 0, degree cap 2)
// with its remap section, path4.nsgf the same graph in the graph-only NSGF
// layout, and path4_sq8.nsgq the record with SQ8 codes. path4_int4_flag.nsgq
// is the SQ8 record with its SQ8 flag swapped for the retired int4 one, and
// path4_huge_m.nsgq the first with a degree cap far past any real one.
func recordFile(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "records", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// pathBase is the base the records under testdata/records index: four 2-d
// rows, row i at (i, 0).
func pathBase() vecmath.Matrix {
	base := vecmath.NewMatrix(4, 2)
	for i := 0; i < 4; i++ {
		base.Row(i)[0] = float32(i)
	}
	return base
}

// legacyTwins reads the NSG record of testdata/legacy/<name>.nsgb and opens
// its <name>.nsgm twin; one index wrote both, so the stream reader must
// build what the mapped open serves.
func legacyTwins(t *testing.T, name string) (stream, mapped *NSG) {
	t.Helper()
	rec, base := legacyBundleRecord(t, name+".nsgb")
	stream, _, err := ReadNSG(bytes.NewReader(rec), base)
	if err != nil {
		t.Fatal(err)
	}
	if mapped, err = OpenMappedFile(t, legacyFile(name+".nsgm"), MapOptions{}); err != nil {
		t.Fatal(err)
	}
	return stream, mapped
}

// TestNSGSerializationRoundTrip: a stream record reads back as the index
// that wrote it — graph, navigating node, degree cap, remap and rows in
// internal order — and searches alike.
func TestNSGSerializationRoundTrip(t *testing.T) {
	got, want := legacyTwins(t, "one_f32")
	if got.Navigating != want.Navigating || got.M != want.M {
		t.Errorf("metadata mismatch: nav %d/%d m %d/%d", got.Navigating, want.Navigating, got.M, want.M)
	}
	if got.flat.N() != want.flat.N() || got.flat.Edges() != want.flat.Edges() {
		t.Fatalf("%d nodes, %d edges; want %d, %d", got.flat.N(), got.flat.Edges(), want.flat.N(), want.flat.Edges())
	}
	for i := range int32(got.flat.N()) {
		if !slices.Equal(got.flat.Neighbors(i), want.flat.Neighbors(i)) {
			t.Fatalf("row %d: %v, want %v", i, got.flat.Neighbors(i), want.flat.Neighbors(i))
		}
	}
	if !slices.Equal(got.PubIDs, want.PubIDs) || !slices.Equal(got.Base.Data, want.Base.Data) {
		t.Fatal("remap or internal row order differs")
	}
	for i := 0; i < 20; i++ {
		q := want.Base.Row(i)
		if a, b := want.Search(q, 5, 20, nil), got.Search(q, 5, 20, nil); !slices.Equal(a, b) {
			t.Fatalf("search differs after round trip: %+v vs %+v", a, b)
		}
	}
}

func TestNSGSerializationErrors(t *testing.T) {
	rec, base := legacyBundleRecord(t, "one_f32.nsgb")
	wrongBase := vecmath.NewMatrix(5, base.Dim)
	if _, _, err := ReadNSG(bytes.NewReader(rec), wrongBase); err == nil {
		t.Error("expected error for mismatched base size")
	}
	if _, _, err := ReadNSG(bytes.NewReader([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}), base); err == nil {
		t.Error("expected error for bad magic")
	}
	if _, _, err := ReadNSG(bytes.NewReader(nil), base); err == nil {
		t.Error("expected error for empty stream")
	}
}

// TestNSGFileRoundTrip: ReadNSG reads a record straight from a file, past
// an NSGB bundle's 12-byte header and vectors, as the bundle loader does.
func TestNSGFileRoundTrip(t *testing.T) {
	_, want := legacyTwins(t, "one_f32")
	_, base := legacyBundleRecord(t, "one_f32.nsgb")
	f, err := os.Open(legacyFile("one_f32.nsgb"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Seek(int64(12+4*len(base.Data)), io.SeekStart); err != nil {
		t.Fatal(err)
	}
	got, blob, err := ReadNSG(f, base)
	if err != nil {
		t.Fatal(err)
	}
	if got.Navigating != want.Navigating || blob == nil {
		t.Errorf("navigating node %d (want %d), metadata section %v", got.Navigating, want.Navigating, blob != nil)
	}
}

func TestNSGDeterministicBuild(t *testing.T) {
	// Same kNN graph + same seed must give the same navigating node and,
	// for single-threaded determinism of search, the same search results.
	ds, err := dataset.SIFTLike(dataset.Config{N: 300, Queries: 5, GTK: 5, Dim: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	knn, err := knngraph.BuildExact(ds.Base, 10)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := NSGBuild(knn, ds.Base, BuildParams{L: 20, M: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := NSGBuild(knn, ds.Base, BuildParams{L: 20, M: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Navigating != b.Navigating {
		t.Errorf("navigating node differs: %d vs %d", a.Navigating, b.Navigating)
	}
	ga, gb := a.flat.ToGraph(), b.flat.ToGraph()
	for i := range ga.Adj {
		if len(ga.Adj[i]) != len(gb.Adj[i]) {
			t.Fatalf("node %d degree differs between identical builds", i)
		}
		for j := range ga.Adj[i] {
			if ga.Adj[i][j] != gb.Adj[i][j] {
				t.Fatalf("node %d adjacency differs between identical builds", i)
			}
		}
	}
}

func TestNSGSparserThanKNNGraph(t *testing.T) {
	// Motivation aspect (2): the NSG out-degree must be far below the kNN
	// graph's k at equal or better recall.
	ds, err := dataset.SIFTLike(dataset.Config{N: 800, Queries: 10, GTK: 5, Dim: 32, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	k := 30
	knn, err := knngraph.BuildExact(ds.Base, k)
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := NSGBuild(knn, ds.Base, BuildParams{L: 30, M: 25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if avg := idx.Stats().AvgDegree; avg >= float64(k) {
		t.Errorf("NSG average degree %.1f not below kNN k=%d", avg, k)
	}
}

func TestNSGNNGPreservation(t *testing.T) {
	// Table 2's NN% for NSG tracks the kNN graph's NN% (99%+ with an exact
	// graph): the edge rule always accepts the first (nearest) candidate.
	ds, err := dataset.SIFTLike(dataset.Config{N: 500, Queries: 1, GTK: 1, Dim: 16, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	knn, err := knngraph.BuildExact(ds.Base, 10)
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := NSGBuild(knn, ds.Base, BuildParams{L: 30, M: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nn := graphutil.ExactNearest(ds.Base)
	if pct := idx.flat.ToGraph().NNPercent(nn); pct < 99 {
		t.Errorf("NN%% = %.1f, want >= 99 with exact kNN input", pct)
	}
}

func TestNSGBuildWithNNDescentInput(t *testing.T) {
	// End-to-end with the approximate builder, as the paper does at scale.
	ds, err := dataset.SIFTLike(dataset.Config{N: 900, Queries: 40, GTK: 10, Dim: 32, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	knn, err := knngraph.BuildNNDescent(ds.Base, knngraph.DefaultParams(25))
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := NSGBuild(knn, ds.Base, BuildParams{L: 40, M: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.flat.ReachableFrom(idx.Navigating); got != 900 {
		t.Errorf("reachable = %d, want 900", got)
	}
	got := make([][]int32, ds.Queries.Rows)
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		res := idx.Search(ds.Queries.Row(qi), 10, 60, nil)
		ids := make([]int32, len(res))
		for i, n := range res {
			ids[i] = n.ID
		}
		got[qi] = ids
	}
	if recall := dataset.MeanRecall(got, ds.GT, 10); recall < 0.85 {
		t.Errorf("recall with NN-Descent input = %.3f, want >= 0.85", recall)
	}
}
