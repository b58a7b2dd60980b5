package distsearch

import (
	"encoding/binary"
	"os"
	"testing"

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
	for _, ids := range s.localID {
		for _, id := range ids {
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

func TestShardedSaveLoad(t *testing.T) {
	s, ds := buildSharded(t, 800, 3)
	path := t.TempDir() + "/sharded.nsgs"
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, ds.Base)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.Shards() != s.Shards() {
		t.Fatalf("shards = %d, want %d", got.Shards(), s.Shards())
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
}

func TestLoadErrors(t *testing.T) {
	base := vecmath.NewMatrix(10, 4)
	if _, err := Load(t.TempDir()+"/missing", base); err == nil {
		t.Error("expected error for missing file")
	}
	bad := t.TempDir() + "/bad"
	if err := writeBytes(bad, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad, base); err == nil {
		t.Error("expected error for bad magic")
	}
}

func writeBytes(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
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
	if s.Base.Rows != n0+1 {
		t.Fatalf("base rows = %d, want %d", s.Base.Rows, n0+1)
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
	for _, ids := range s.localID {
		for _, id := range ids {
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
	if st.Hops <= 0 || st.DistComps == 0 {
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

func TestVersionedFormatRejectsV1(t *testing.T) {
	// A v1 header (PR 2 layout, magic "NSGS") is magic + shard count with
	// no version field; the v2 reader must reject every v1 file at the
	// magic check — including shard counts that would alias as a valid
	// version number in the v2 layout.
	base := vecmath.NewMatrix(10, 4)
	for _, v1Shards := range []uint32{2, 4} {
		path := t.TempDir() + "/v1"
		hdr := make([]byte, 12)
		binary.LittleEndian.PutUint32(hdr[0:], 0x4e534753) // v1 magic "NSGS"
		binary.LittleEndian.PutUint32(hdr[4:], v1Shards)
		if err := os.WriteFile(path, hdr, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path, base); err == nil {
			t.Fatalf("expected error for v1 file with %d shards", v1Shards)
		}
	}
	// A v2 magic with a wrong version must hit the version gate.
	path := t.TempDir() + "/v9"
	hdr := make([]byte, 12)
	binary.LittleEndian.PutUint32(hdr[0:], 0x4e534754)
	binary.LittleEndian.PutUint32(hdr[4:], 9)
	binary.LittleEndian.PutUint32(hdr[8:], 1)
	if err := os.WriteFile(path, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, base); err == nil {
		t.Fatal("expected version error for v9 file")
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

	path := t.TempDir() + "/quant.shards"
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, ds.Base)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
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
