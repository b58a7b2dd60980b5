package nsg

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func buildSmallIndex(t *testing.T, n, dim int, seed int64) (*Index, [][]float32) {
	t.Helper()
	vecs := randomVectors(n, dim, seed)
	opts := DefaultOptions()
	opts.ExactKNN = true
	idx, err := Build(vecs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return idx, vecs
}

func TestAddThenFind(t *testing.T) {
	idx, _ := buildSmallIndex(t, 500, 8, 30)
	vec := make([]float32, 8)
	for i := range vec {
		vec[i] = 0.5
	}
	id, err := idx.Add(vec)
	if err != nil {
		t.Fatal(err)
	}
	if id != 500 || idx.Len() != 501 {
		t.Fatalf("id=%d len=%d", id, idx.Len())
	}
	ids, dists := idx.SearchWithPool(vec, 1, 60)
	if ids[0] != id || dists[0] != 0 {
		t.Errorf("self-search = %d at %v, want %d at 0", ids[0], dists[0], id)
	}
	// The caller's slice must have been copied.
	vec[0] = 99
	if idx.Vector(int(id))[0] == 99 {
		t.Error("Add aliased the caller's slice")
	}
}

func TestAddDimMismatch(t *testing.T) {
	idx, _ := buildSmallIndex(t, 100, 8, 31)
	if _, err := idx.Add(make([]float32, 3)); err == nil {
		t.Error("expected dimension error")
	}
}

func TestDeleteFiltersResults(t *testing.T) {
	idx, vecs := buildSmallIndex(t, 500, 8, 32)
	q := vecs[42]
	before, _ := idx.SearchWithPool(q, 3, 60)
	if before[0] != 42 {
		t.Fatalf("self-query found %d", before[0])
	}
	if err := idx.Delete(42); err != nil {
		t.Fatal(err)
	}
	if !idx.Deleted(42) || idx.DeletedCount() != 1 {
		t.Error("tombstone not recorded")
	}
	after, _ := idx.SearchWithPool(q, 3, 60)
	for _, id := range after {
		if id == 42 {
			t.Fatal("deleted id still returned")
		}
	}
	if after[0] != before[1] {
		t.Errorf("next-best = %d, want %d", after[0], before[1])
	}
	// Error paths.
	if err := idx.Delete(42); err == nil {
		t.Error("double delete must error")
	}
	if err := idx.Delete(-1); err == nil {
		t.Error("negative id must error")
	}
	if err := idx.Delete(10000); err == nil {
		t.Error("out-of-range id must error")
	}
}

func TestCompactPublic(t *testing.T) {
	idx, vecs := buildSmallIndex(t, 400, 8, 33)
	for id := int32(0); id < 50; id++ {
		if err := idx.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	remap, err := idx.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 350 {
		t.Fatalf("len after compact = %d, want 350", idx.Len())
	}
	if idx.DeletedCount() != 0 {
		t.Error("tombstones survive compaction")
	}
	for id := 0; id < 50; id++ {
		if remap[id] != -1 {
			t.Fatalf("deleted id %d remapped to %d", id, remap[id])
		}
	}
	// A surviving vector is still findable under its new id.
	q := vecs[200]
	ids, _ := idx.SearchWithPool(q, 1, 60)
	if ids[0] != remap[200] {
		t.Errorf("post-compact self-query = %d, want %d", ids[0], remap[200])
	}
}

func TestCompactNoTombstonesIsIdentity(t *testing.T) {
	idx, _ := buildSmallIndex(t, 100, 8, 34)
	remap, err := idx.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if len(remap) != 100 {
		t.Fatalf("remap len = %d", len(remap))
	}
	for i, v := range remap {
		if v != int32(i) {
			t.Fatalf("identity remap broken at %d -> %d", i, v)
		}
	}
	if idx.Len() != 100 {
		t.Error("compact without tombstones changed the index")
	}
}

func TestAddManyKeepsRecall(t *testing.T) {
	// Start with 300 points, add 300 more, verify queries find the new
	// points accurately via brute-force comparison.
	idx, vecs := buildSmallIndex(t, 300, 12, 35)
	extra := randomVectors(300, 12, 36)
	for _, v := range extra {
		if _, err := idx.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	all := append(append([][]float32{}, vecs...), extra...)
	queries := randomVectors(30, 12, 37)
	hits, total := 0, 0
	for _, q := range queries {
		want := bruteforce(all, q, 5)
		truth := map[int32]bool{}
		for _, id := range want {
			truth[id] = true
		}
		ids, _ := idx.SearchWithPool(q, 5, 80)
		for _, id := range ids {
			total++
			if truth[id] {
				hits++
			}
		}
	}
	if recall := float64(hits) / float64(total); recall < 0.85 {
		t.Errorf("recall after growth = %.3f, want >= 0.85", recall)
	}
}

// TestSaveRejectsUncompactedDeletes: no file format stores tombstones, so
// Save and SaveMapped refuse an index with deletes, and write nothing,
// rather than a file whose load brings the deleted points back. After
// Compact both save, and the reloaded index has no trace of the point.
func TestSaveRejectsUncompactedDeletes(t *testing.T) {
	idx, vecs := buildSmallIndex(t, 500, 8, 36)
	if err := idx.Delete(7); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		save func(string) error
	}{{"Save", idx.Save}, {"SaveMapped", idx.SaveMapped}} {
		path := filepath.Join(dir, c.name)
		if err := c.save(path); !errors.Is(err, ErrUncompactedDeletes) {
			t.Fatalf("%s with a delete: got %v, want ErrUncompactedDeletes", c.name, err)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("refused %s left a file behind: %v", c.name, err)
		}
	}

	if _, err := idx.Compact(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "compacted.nsg")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	if err := idx.SaveMapped(filepath.Join(dir, "compacted.nsgm")); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 499 {
		t.Fatalf("reloaded %d points, want 499", loaded.Len())
	}
	if _, dists := loaded.SearchWithPool(vecs[7], 1, 60); dists[0] == 0 {
		t.Fatal("the deleted point came back after Compact, Save and Load")
	}
}
