package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/dataset"
)

func fixture(t *testing.T) (indexPath, queryPath, gtPath string) {
	t.Helper()
	dir := t.TempDir()
	ds, err := dataset.Uniform(dataset.Config{N: 600, Queries: 20, GTK: 10, Dim: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	opts := nsg.DefaultOptions()
	opts.ExactKNN = true
	idx, err := nsg.BuildFromFlat(ds.Base.Data, ds.Base.Dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	indexPath = filepath.Join(dir, "idx.nsg")
	if err := idx.Save(indexPath); err != nil {
		t.Fatal(err)
	}
	queryPath = filepath.Join(dir, "q.fvecs")
	if err := dataset.SaveFvecsFile(queryPath, ds.Queries); err != nil {
		t.Fatal(err)
	}
	gtPath = filepath.Join(dir, "gt.ivecs")
	if err := dataset.SaveIvecsFile(gtPath, ds.GT); err != nil {
		t.Fatal(err)
	}
	return
}

func TestSearchWithGroundTruth(t *testing.T) {
	indexPath, queryPath, gtPath := fixture(t)
	var out bytes.Buffer
	err := run([]string{"-index", indexPath, "-query", queryPath, "-gt", gtPath, "-k", "10", "-l", "80"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "recall@10") {
		t.Fatalf("missing recall line: %s", s)
	}
	// Parse the recall value loosely: the run on uniform data must be good.
	if strings.Contains(s, "recall@10 = 0.0") || strings.Contains(s, "recall@10 = 0.1") {
		t.Errorf("implausibly low recall: %s", s)
	}
}

func TestSearchWithoutGroundTruth(t *testing.T) {
	indexPath, queryPath, _ := fixture(t)
	var out bytes.Buffer
	if err := run([]string{"-index", indexPath, "-query", queryPath}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "query 0:") {
		t.Errorf("missing sample results: %s", out.String())
	}
}

func TestSearchErrors(t *testing.T) {
	indexPath, queryPath, _ := fixture(t)
	if err := run(nil, &bytes.Buffer{}); err == nil {
		t.Error("expected error without flags")
	}
	if err := run([]string{"-index", "/missing", "-query", queryPath}, &bytes.Buffer{}); err == nil {
		t.Error("expected error for missing index")
	}
	if err := run([]string{"-index", indexPath, "-query", "/missing"}, &bytes.Buffer{}); err == nil {
		t.Error("expected error for missing queries")
	}
}

// TestSearchReadsServeBundle: -index reads a multi-shard bundle as written
// by nsgserve -save (Save of a BuildShardedFromFlat index) and answers with
// the same recall as the one-NSG fixture.
func TestSearchReadsServeBundle(t *testing.T) {
	_, queryPath, gtPath := fixture(t)
	ds, err := dataset.Uniform(dataset.Config{N: 600, Queries: 20, GTK: 10, Dim: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	opts := nsg.DefaultShardedOptions(2)
	opts.Shard.ExactKNN = true
	idx, err := nsg.BuildShardedFromFlat(ds.Base.Data, ds.Base.Dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	bundle := filepath.Join(t.TempDir(), "idx.nsg")
	if err := idx.Save(bundle); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-index", bundle, "-query", queryPath, "-gt", gtPath, "-k", "10", "-l", "80"}, &out); err != nil {
		t.Fatalf("nsgsearch over an nsgserve bundle: %v", err)
	}
	if s := out.String(); !strings.Contains(s, "recall@10") || strings.Contains(s, "recall@10 = 0.0") || strings.Contains(s, "recall@10 = 0.1") {
		t.Fatalf("missing or implausible recall: %s", s)
	}
}
