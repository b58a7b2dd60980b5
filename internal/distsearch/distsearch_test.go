package distsearch

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/vecmath"
)

func buildSharded(t *testing.T, n, shards int) (*Sharded, dataset.Dataset) {
	t.Helper()
	ds, err := dataset.ECommerceLike(dataset.Config{N: n, Queries: 30, GTK: 10, Dim: 32, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(shards)
	p.UseNNDescent = false
	s, err := BuildSharded(ds.Base, p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close) // Close is idempotent, so tests may also close explicitly
	return s, ds
}

func TestShardedRecall(t *testing.T) {
	s, ds := buildSharded(t, 2000, 4)
	if s.Shards() != 4 {
		t.Fatalf("shards = %d, want 4", s.Shards())
	}
	got := make([][]int32, ds.Queries.Rows)
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		res := s.Search(nil, ds.Queries.Row(qi), 10, 60, nil, nil)
		ids := make([]int32, len(res))
		for i, n := range res {
			ids[i] = n.ID
		}
		got[qi] = ids
	}
	if recall := dataset.MeanRecall(got, ds.GT, 10); recall < 0.92 {
		t.Errorf("sharded recall@10 = %.3f, want >= 0.92", recall)
	}
}

func TestGlobalIDsValid(t *testing.T) {
	s, ds := buildSharded(t, 1000, 4)
	res := s.Search(nil, ds.Queries.Row(0), 10, 40, nil, nil)
	q := ds.Queries.Row(0)
	for _, n := range res {
		if n.ID < 0 || int(n.ID) >= ds.Base.Rows {
			t.Fatalf("global id %d out of range", n.ID)
		}
		// The reported distance must match the global vector exactly.
		if want := vecmath.L2(q, ds.Base.Row(int(n.ID))); n.Dist != want {
			t.Fatalf("id %d: dist %v, want %v — local→global mapping broken", n.ID, n.Dist, want)
		}
	}
}

func TestEveryPointInExactlyOneShard(t *testing.T) {
	s, _ := buildSharded(t, 1000, 4)
	seen := make(map[int32]struct{})
	for _, h := range s.handles {
		for _, id := range h.Translate() {
			if _, dup := seen[id]; dup {
				t.Fatalf("id %d in two shards", id)
			}
			seen[id] = struct{}{}
		}
	}
	if len(seen) != 1000 {
		t.Fatalf("%d ids covered, want 1000", len(seen))
	}
}

func TestValidation(t *testing.T) {
	base := vecmath.NewMatrix(10, 4)
	if _, err := BuildSharded(base, DefaultParams(0)); err == nil {
		t.Error("expected error for 0 shards")
	}
	if _, err := BuildSharded(base, DefaultParams(8)); err == nil {
		t.Error("expected error for too many shards")
	}
}

// roundTrip saves s and reopens it verified, checking the options come
// back as written and the reopened index serves the file it holds open.
func roundTrip(t *testing.T, s *Sharded) *Sharded {
	t.Helper()
	opts := FileOptions{GraphK: 11, BuildL: 22, MaxDegree: 33, SearchL: 44, Quantize: true}
	path := filepath.Join(t.TempDir(), "idx.nsg")
	if err := s.Save(path, opts); err != nil {
		t.Fatal(err)
	}
	got, gotOpts, err := OpenMapped(path, core.MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(got.Close)
	if gotOpts != opts {
		t.Fatalf("options %+v did not round-trip: %+v", opts, gotOpts)
	}
	if got.mapped == nil {
		t.Fatal("the verified open holds no file")
	}
	return got
}

func TestShardedSaveLoad(t *testing.T) {
	s, ds := buildSharded(t, 800, 3)
	got := roundTrip(t, s)
	if got.Shards() != s.Shards() || got.Len() != s.Len() || got.Dim() != s.Dim() {
		t.Fatalf("shape %d/%d/%d, want %d/%d/%d", got.Shards(), got.Len(), got.Dim(), s.Shards(), s.Len(), s.Dim())
	}
	q := ds.Queries.Row(0)
	a := s.Search(nil, q, 5, 40, nil, nil)
	b := got.Search(nil, q, 5, 40, nil, nil)
	if len(a) != 5 || len(b) != len(a) {
		t.Fatalf("got %d and %d results, want 5 each", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("search differs after reload: %+v vs %+v", a, b)
		}
	}
	for _, id := range []int{0, 99, ds.Base.Rows - 1} {
		if !slices.Equal(got.VectorByID(id), ds.Base.Row(id)) {
			t.Fatalf("vector %d did not round-trip", id)
		}
	}
}

// loadBytes opens b as an index file, verified.
func loadBytes(t *testing.T, b []byte) error {
	t.Helper()
	path := filepath.Join(t.TempDir(), "idx.nsg")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s, _, err := OpenMapped(path, core.MapOptions{})
	if err == nil {
		s.Close()
	}
	return err
}

// TestLoadErrors: a file a verified open cannot read fails with an error,
// and the container parser's damage reports are *core.FormatError.
func TestLoadErrors(t *testing.T) {
	var fe *core.FormatError
	if err := loadBytes(t, nil); !errors.As(err, &fe) {
		t.Errorf("an empty file: got %v, want a format error", err)
	}
	if err := loadBytes(t, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}); !errors.As(err, &fe) {
		t.Errorf("bad magic: got %v, want a format error", err)
	}
	s, _ := buildSharded(t, 400, 2)
	path := filepath.Join(t.TempDir(), "idx.nsg")
	if err := s.Save(path, FileOptions{}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff // inside shard 1's record
	if err := loadBytes(t, b); !errors.As(err, &fe) {
		t.Errorf("a flipped byte: got %v, want a format error", err)
	}
	if _, _, err := OpenMapped(filepath.Join(t.TempDir(), "missing"), core.MapOptions{}); err == nil {
		t.Error("expected error for a missing file")
	}
}

func TestRoutedInsert(t *testing.T) {
	s, ds := buildSharded(t, 1000, 4)
	n0 := ds.Base.Rows
	vec := make([]float32, ds.Base.Dim)
	copy(vec, ds.Base.Row(7)) // a duplicate of an existing point: trivially findable
	gid, sh, err := s.Insert(vec)
	if err != nil {
		t.Fatal(err)
	}
	if gid != int32(n0) {
		t.Fatalf("global id = %d, want %d", gid, n0)
	}
	if sh < 0 || sh >= s.Shards() {
		t.Fatalf("shard %d out of range", sh)
	}
	if s.Len() != n0+1 {
		t.Fatalf("Len = %d, want %d", s.Len(), n0+1)
	}
	if !slices.Equal(s.VectorByID(int(gid)), vec) {
		t.Fatalf("VectorByID(%d) = %v, want the inserted row", gid, s.VectorByID(int(gid)))
	}
	// The new point must be discoverable through the fan-out path.
	res := s.Search(nil, vec, 2, 40, nil, nil)
	found := false
	for _, nb := range res {
		if nb.ID == gid || nb.ID == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("inserted point (gid %d) not found near its own vector: %+v", gid, res)
	}
	// Global ids must stay unique across shards once the insert drained.
	s.Flush()
	seen := make(map[int32]struct{})
	total := 0
	for _, h := range s.handles {
		for _, id := range h.Translate() {
			if _, dup := seen[id]; dup {
				t.Fatalf("id %d in two shards after insert", id)
			}
			seen[id] = struct{}{}
			total++
		}
	}
	if total != n0+1 {
		t.Fatalf("%d ids covered, want %d", total, n0+1)
	}
}

func TestInsertDimMismatch(t *testing.T) {
	s, _ := buildSharded(t, 1000, 2)
	if _, _, err := s.Insert(make([]float32, 3)); err == nil {
		t.Fatal("expected dim-mismatch error")
	}
}

func TestSearchStatsMerged(t *testing.T) {
	s, ds := buildSharded(t, 1200, 3)
	var st SearchStats
	res := s.Search(nil, ds.Queries.Row(0), 10, 40, nil, &st)
	if len(res) != 10 {
		t.Fatalf("got %d results, want 10", len(res))
	}
	if st.Hops <= 0 || st.DistanceComputations == 0 {
		t.Fatalf("stats not merged: %+v", st)
	}
	// The merged tallies must cover all shards: at least one hop and k
	// distance computations per shard.
	if st.Hops < s.Shards() {
		t.Fatalf("hops %d < shard count %d", st.Hops, s.Shards())
	}
	// Stats path and plain path must agree on the results.
	plain := s.Search(nil, ds.Queries.Row(0), 10, 40, nil, nil)
	for i := range res {
		if res[i] != plain[i] {
			t.Fatalf("stats path diverged at %d: %+v vs %+v", i, res[i], plain[i])
		}
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
		for name, open := range map[string]func() error{
			"OpenMapped":         func() error { _, _, err := OpenMapped(path, core.MapOptions{}); return err },
			"OpenMapped/trusted": func() error { _, _, err := OpenMapped(path, core.MapOptions{NoVerify: true}); return err },
		} {
			var fe *core.FormatError
			if err := open(); !errors.As(err, &fe) || !strings.Contains(fe.Reason, layout) || !strings.Contains(fe.Reason, "ad169cf") {
				t.Errorf("%s of an %s file: got %v, want a format error naming the layout and commit ad169cf", name, layout, err)
			}
		}
	}
}

func TestCloseIdempotent(t *testing.T) {
	s, ds := buildSharded(t, 1000, 2)
	if got := s.Search(nil, ds.Queries.Row(0), 5, 40, nil, nil); len(got) != 5 {
		t.Fatalf("got %d results", len(got))
	}
	s.Close()
	s.Close() // must not panic
}

// TestQuantizedSharding: one quantizer is trained for the whole build (all
// shards share identical scales — the satellite contract that replaced
// per-shard retraining), the fan-out path serves quantized results, and the
// persisted form round-trips through Write/Read with the shared state
// intact.
func TestQuantizedSharding(t *testing.T) {
	ds, err := dataset.ECommerceLike(dataset.Config{N: 1600, Queries: 30, GTK: 10, Dim: 32, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(4)
	p.UseNNDescent = false
	p.Quantize = true
	s, err := BuildSharded(ds.Base, p)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.Quantized() {
		t.Fatal("index not quantized")
	}
	scale := s.shards[0].Quant.Q.Scale()
	for sh, shard := range s.shards {
		if !shard.IsQuantized() {
			t.Fatalf("shard %d not quantized", sh)
		}
		if got := shard.Quant.Q.Scale(); got != scale {
			t.Fatalf("shard %d scale %g != shard 0 scale %g: quantizer not shared", sh, got, scale)
		}
	}

	got := make([][]int32, ds.Queries.Rows)
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		res := s.Search(nil, ds.Queries.Row(qi), 10, 60, nil, nil)
		ids := make([]int32, len(res))
		for i, n := range res {
			ids[i] = n.ID
		}
		got[qi] = ids
	}
	if recall := dataset.MeanRecall(got, ds.GT, 10); recall < 0.92 {
		t.Errorf("quantized sharded recall@10 = %.3f, want >= 0.92", recall)
	}

	loaded := roundTrip(t, s)
	if !loaded.Quantized() {
		t.Fatal("reloaded index lost quantization")
	}
	for qi := 0; qi < 10; qi++ {
		a := s.Search(nil, ds.Queries.Row(qi), 10, 60, nil, nil)
		b := loaded.Search(nil, ds.Queries.Row(qi), 10, 60, nil, nil)
		if len(a) != len(b) {
			t.Fatalf("query %d: result length changed across persist", qi)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d rank %d: %v vs %v after persist", qi, i, a[i], b[i])
			}
		}
	}

	// Routed insert on the quantized index: codes and remap extend.
	vec := make([]float32, ds.Base.Dim)
	copy(vec, ds.Base.Row(7))
	gid, sh, err := s.Insert(vec)
	if err != nil {
		t.Fatal(err)
	}
	if sh < 0 || sh >= s.Shards() {
		t.Fatalf("insert routed to invalid shard %d", sh)
	}
	res := s.Search(nil, vec, 2, 60, nil, nil)
	found := false
	for _, n := range res {
		if n.ID == gid && n.Dist == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("inserted vector %d not found at distance 0: %v", gid, res)
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
	for _, quantize := range []bool{false, true} {
		p := DefaultParams(3)
		p.Quantize = quantize
		s, err := BuildSharded(ds.Base, p)
		if err != nil {
			t.Fatal(err)
		}
		for sh, shard := range s.shards {
			if shard.Navigating != 0 {
				t.Fatalf("quantize=%v shard %d: navigating node is internal row %d, not 0: it was not relaid", quantize, sh, shard.Navigating)
			}
			if shard.IsQuantized() != quantize {
				t.Fatalf("quantize=%v shard %d: IsQuantized %v", quantize, sh, shard.IsQuantized())
			}
			for j, g := range s.handles[sh].Translate() {
				if !slices.Equal(shard.VectorByID(int32(j)), ds.Base.Row(int(g))) {
					t.Fatalf("quantize=%v shard %d row %d is not global row %d", quantize, sh, j, g)
				}
			}
		}
		s.Close()
	}
}
