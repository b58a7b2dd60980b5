package dataset

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/vecmath"
)

func TestGeneratorsBasicShape(t *testing.T) {
	cfg := Config{N: 300, Queries: 10, GTK: 5, Seed: 1}
	gens := []struct {
		name string
		fn   func(Config) (Dataset, error)
		dim  int
	}{
		{"SIFTLike", SIFTLike, 128},
		{"GISTLike", GISTLike, 960},
		{"DEEPLike", DEEPLike, 96},
		{"ECommerceLike", ECommerceLike, 128},
		{"Uniform", Uniform, 128},
		{"Gaussian", Gaussian, 128},
	}
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			ds, err := g.fn(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ds.Base.Rows != cfg.N || ds.Base.Dim != g.dim {
				t.Errorf("base shape %dx%d, want %dx%d", ds.Base.Rows, ds.Base.Dim, cfg.N, g.dim)
			}
			if ds.Queries.Rows != cfg.Queries {
				t.Errorf("query rows %d, want %d", ds.Queries.Rows, cfg.Queries)
			}
			if len(ds.GT) != cfg.Queries {
				t.Fatalf("GT rows %d, want %d", len(ds.GT), cfg.Queries)
			}
			for qi, gt := range ds.GT {
				if len(gt) != cfg.GTK {
					t.Fatalf("GT[%d] has %d ids, want %d", qi, len(gt), cfg.GTK)
				}
			}
		})
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	cfg := Config{N: 200, Queries: 5, GTK: 3, Seed: 42}
	a, err := SIFTLike(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SIFTLike(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Base.Data {
		if a.Base.Data[i] != b.Base.Data[i] {
			t.Fatalf("same seed produced different data at %d", i)
		}
	}
	c, err := SIFTLike(Config{N: 200, Queries: 5, GTK: 3, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Base.Data {
		if a.Base.Data[i] != c.Base.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestSIFTLikeValueRange(t *testing.T) {
	ds, err := SIFTLike(Config{N: 500, Queries: 1, GTK: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ds.Base.Data {
		if v < 0 || v > 255 {
			t.Fatalf("SIFT-like value %v outside [0,255]", v)
		}
		if v != float32(math.Trunc(float64(v))) {
			t.Fatalf("SIFT-like value %v not integer", v)
		}
	}
}

func TestGISTLikeValueRange(t *testing.T) {
	ds, err := GISTLike(Config{N: 100, Queries: 1, GTK: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ds.Base.Data {
		if v < 0 || v > 1.5 {
			t.Fatalf("GIST-like value %v outside [0,1.5]", v)
		}
	}
}

func TestDEEPLikeUnitNorm(t *testing.T) {
	ds, err := DEEPLike(Config{N: 100, Queries: 1, GTK: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Base.Rows; i++ {
		n := float64(vecmath.Norm(ds.Base.Row(i)))
		if math.Abs(n-1) > 1e-4 {
			t.Fatalf("DEEP-like row %d norm %v, want 1", i, n)
		}
	}
}

func TestUniformRange(t *testing.T) {
	ds, err := Uniform(Config{N: 300, Queries: 1, GTK: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ds.Base.Data {
		if v < 0 || v >= 1 {
			t.Fatalf("Uniform value %v outside [0,1)", v)
		}
	}
}

func TestGaussianMoments(t *testing.T) {
	ds, err := Gaussian(Config{N: 2000, Queries: 1, GTK: 1, Dim: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var mean, m2 float64
	for _, v := range ds.Base.Data {
		mean += float64(v)
	}
	mean /= float64(len(ds.Base.Data))
	for _, v := range ds.Base.Data {
		d := float64(v) - mean
		m2 += d * d
	}
	std := math.Sqrt(m2 / float64(len(ds.Base.Data)))
	if math.Abs(mean) > 0.1 {
		t.Errorf("Gaussian mean = %v, want ~0", mean)
	}
	if math.Abs(std-3) > 0.2 {
		t.Errorf("Gaussian std = %v, want ~3", std)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{N: 0, Queries: 1, GTK: 1},
		{N: 10, Queries: -1, GTK: 1},
		{N: 10, Queries: 1, GTK: 0},
		{N: 10, Queries: 1, GTK: 11},
	}
	for i, cfg := range bad {
		if _, err := Uniform(cfg); err == nil {
			t.Errorf("config %d: expected validation error", i)
		}
	}
}

func TestGroundTruthExactness(t *testing.T) {
	base := vecmath.MatrixFromSlices([][]float32{
		{0, 0}, {1, 0}, {2, 0}, {10, 10},
	})
	queries := vecmath.MatrixFromSlices([][]float32{{0.4, 0}})
	for _, c := range []struct {
		pass []uint64
		want []int32
	}{
		{nil, []int32{0, 1, 2}},
		{[]uint64{0b1101}, []int32{0, 2, 3}}, // row 1 filtered out
		{[]uint64{0b0010}, []int32{1}},       // fewer passing rows than k
	} {
		if gt := GroundTruth(base, queries, 3, c.pass); !slices.Equal(gt[0], c.want) {
			t.Errorf("pass %v: gt[0] = %v, want %v", c.pass, gt[0], c.want)
		}
	}
}

// TestGroundTruthSortedProperty checks the core invariant: ground-truth
// distances are ascending and the first id is the global argmin.
func TestGroundTruthSortedProperty(t *testing.T) {
	ds, err := Uniform(Config{N: 400, Queries: 20, GTK: 10, Dim: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		q := ds.Queries.Row(qi)
		prev := float32(-1)
		for _, id := range ds.GT[qi] {
			d := vecmath.L2(q, ds.Base.Row(int(id)))
			if d < prev {
				t.Fatalf("query %d: GT distances not ascending", qi)
			}
			prev = d
		}
		// no base point may be strictly closer than the reported nearest
		best := vecmath.L2(q, ds.Base.Row(int(ds.GT[qi][0])))
		for i := 0; i < ds.Base.Rows; i++ {
			if vecmath.L2(q, ds.Base.Row(i)) < best {
				t.Fatalf("query %d: GT[0] is not the global nearest", qi)
			}
		}
	}
}

func TestRecall(t *testing.T) {
	gt := []int32{1, 2, 3, 4}
	cases := []struct {
		got  []int32
		k    int
		want float64
	}{
		{[]int32{1, 2, 3, 4}, 4, 1.0},
		{[]int32{1, 2, 9, 9}, 4, 0.5},
		{[]int32{9, 9, 9, 9}, 4, 0.0},
		{[]int32{1}, 1, 1.0},
		{[]int32{2}, 1, 0.0}, // 2 is not the 1-NN
	}
	for i, c := range cases {
		if got := Recall(c.got, gt, c.k); got != c.want {
			t.Errorf("case %d: recall = %v, want %v", i, got, c.want)
		}
	}
}

func TestRecallBounds(t *testing.T) {
	f := func(got []int32, gt []int32, kRaw uint8) bool {
		k := int(kRaw) + 1
		r := Recall(got, gt, k)
		return r >= 0 && r <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanRecall(t *testing.T) {
	got := [][]int32{{1}, {9}}
	gt := [][]int32{{1}, {1}}
	if m := MeanRecall(got, gt, 1); m != 0.5 {
		t.Errorf("MeanRecall = %v, want 0.5", m)
	}
	if m := MeanRecall(nil, nil, 1); m != 0 {
		t.Errorf("MeanRecall(empty) = %v, want 0", m)
	}
}

func TestLIDSeparatesEasyFromHard(t *testing.T) {
	// The headline property from Table 1: manifold data has LID far below
	// ambient dimension; uniform data has LID near ambient dimension.
	easy, err := SIFTLike(Config{N: 1500, Queries: 1, GTK: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	hard, err := Uniform(Config{N: 1500, Queries: 1, GTK: 1, Dim: 64, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	lidEasy := EstimateLID(easy.Base, 20, 200, 1)
	lidHard := EstimateLID(hard.Base, 20, 200, 1)
	if lidEasy >= 40 {
		t.Errorf("SIFT-like LID = %.1f, want well below ambient 128", lidEasy)
	}
	if lidHard <= lidEasy {
		t.Errorf("uniform LID (%.1f) should exceed manifold LID (%.1f)", lidHard, lidEasy)
	}
}

func TestLIDDegenerateInputs(t *testing.T) {
	tiny := vecmath.MatrixFromSlices([][]float32{{0, 0}, {1, 1}})
	if lid := EstimateLID(tiny, 10, 10, 1); lid != 2 {
		t.Errorf("LID on tiny set = %v, want ambient dim fallback 2", lid)
	}
	// All-duplicate points: estimator must not divide by zero.
	dup := vecmath.NewMatrix(50, 4)
	lid := EstimateLID(dup, 10, 20, 1)
	if math.IsNaN(lid) || math.IsInf(lid, 0) {
		t.Errorf("LID on duplicates = %v, want finite", lid)
	}
}

func TestFvecsRoundTrip(t *testing.T) {
	m := vecmath.MatrixFromSlices([][]float32{{1.5, -2, 3}, {0, 0.25, -0.5}})
	var buf bytes.Buffer
	if err := WriteFvecs(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFvecs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != m.Rows || got.Dim != m.Dim {
		t.Fatalf("round-trip shape %dx%d, want %dx%d", got.Rows, got.Dim, m.Rows, m.Dim)
	}
	for i := range m.Data {
		if got.Data[i] != m.Data[i] {
			t.Fatalf("round-trip value mismatch at %d: %v != %v", i, got.Data[i], m.Data[i])
		}
	}
}

func TestIvecsRoundTrip(t *testing.T) {
	gt := [][]int32{{1, 2, 3}, {4, 5}}
	var buf bytes.Buffer
	if err := WriteIvecs(&buf, gt); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIvecs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(got[0]) != 3 || len(got[1]) != 2 {
		t.Fatalf("round-trip shape wrong: %v", got)
	}
	if got[0][2] != 3 || got[1][1] != 5 {
		t.Fatalf("round-trip values wrong: %v", got)
	}
}

func TestReadFvecsCorrupt(t *testing.T) {
	// Truncated record: header says dim 3 but only 2 values follow.
	var buf bytes.Buffer
	buf.Write([]byte{3, 0, 0, 0})
	buf.Write(make([]byte, 8))
	if _, err := ReadFvecs(&buf); err == nil {
		t.Error("expected error on truncated fvecs")
	}
	var buf2 bytes.Buffer
	buf2.Write([]byte{0xff, 0xff, 0xff, 0xff}) // negative dimension
	if _, err := ReadFvecs(&buf2); err == nil {
		t.Error("expected error on negative dimension")
	}
	var empty bytes.Buffer
	if _, err := ReadFvecs(&empty); err == nil {
		t.Error("expected error on empty stream")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := vecmath.MatrixFromSlices([][]float32{{1, 2}, {3, 4}})
	fp := dir + "/x.fvecs"
	if err := SaveFvecsFile(fp, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFvecsFile(fp)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 2 || got.Data[3] != 4 {
		t.Fatalf("file round-trip wrong: %+v", got)
	}
	ip := dir + "/x.ivecs"
	if err := SaveIvecsFile(ip, [][]int32{{7}}); err != nil {
		t.Fatal(err)
	}
	ids, err := LoadIvecsFile(ip)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0][0] != 7 {
		t.Fatalf("ivecs file round-trip wrong: %v", ids)
	}
}

func TestECommerceClusterSkew(t *testing.T) {
	// The Zipf-weighted generator should place noticeably more mass in the
	// densest region than a uniform-cluster generator. Proxy: the average
	// distance to the nearest neighbor should vary strongly across points.
	ds, err := ECommerceLike(Config{N: 800, Queries: 1, GTK: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name != "ECommerce-like" {
		t.Errorf("name = %q", ds.Name)
	}
	gt := GroundTruth(ds.Base, ds.Base.Slice(0, 100), 2, nil)
	var min, max float64 = math.Inf(1), 0
	for i := 0; i < 100; i++ {
		d := float64(vecmath.L2(ds.Base.Row(i), ds.Base.Row(int(gt[i][1]))))
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if !(max > min) {
		t.Errorf("expected NN-distance spread, got min=%v max=%v", min, max)
	}
}
