package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/dataset"
)

// withShards is nsg.DefaultOptions over r shards.
func withShards(r int) nsg.Options {
	o := nsg.DefaultOptions()
	o.Shards = r
	return o
}

func testIndex(t *testing.T) *nsg.Index {
	t.Helper()
	ds, err := dataset.SIFTLike(dataset.Config{N: 600, Queries: 4, GTK: 10, Dim: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opts := withShards(3)
	opts.ExactKNN = true
	opts.Seed = 3
	idx, err := nsg.BuildFromFlat(ds.Base.Data, ds.Base.Dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Close)
	return idx
}

// postJSONErr is the goroutine-safe core of postJSON: it reports failures
// as errors so worker goroutines never call t.Fatal off the test goroutine.
func postJSONErr(url string, body any) (*http.Response, []byte, error) {
	blob, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return resp, out, nil
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	resp, out, err := postJSONErr(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestServerEndpoints(t *testing.T) {
	idx := testIndex(t)
	srv := newServer(idx, 10, 60, 4096)
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	// healthz
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// search: query an indexed vector; it must find itself (dist 0).
	query := make([]float32, idx.Dim())
	copy(query, idx.Vector(11))
	resp, body := postJSON(t, ts.URL+"/search", cluster.SearchRequest{Query: query, K: 5, Stats: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d: %s", resp.StatusCode, body)
	}
	var sr cluster.SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.IDs) != 5 || len(sr.Dists) != 5 {
		t.Fatalf("got %d ids, %d dists", len(sr.IDs), len(sr.Dists))
	}
	if sr.IDs[0] != 11 || sr.Dists[0] != 0 {
		t.Fatalf("self-query: nearest = (%d, %v), want (11, 0)", sr.IDs[0], sr.Dists[0])
	}
	if sr.Hops < idx.Shards() || sr.DistComps == 0 {
		t.Fatalf("merged stats missing: %+v", sr)
	}

	// search without stats omits the work fields.
	_, body = postJSON(t, ts.URL+"/search", cluster.SearchRequest{Query: query, K: 3})
	var plain map[string]any
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}
	if _, ok := plain["hops"]; ok {
		t.Fatal("hops reported without stats:true")
	}

	// bad searches
	resp, _ = postJSON(t, ts.URL+"/search", cluster.SearchRequest{Query: []float32{1, 2}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dim-mismatch search status %d, want 400", resp.StatusCode)
	}
	// k/l beyond the server cap must be rejected, not allocated for.
	resp, _ = postJSON(t, ts.URL+"/search", cluster.SearchRequest{Query: query, K: 5, L: 1 << 30})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized-l search status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/search", cluster.SearchRequest{Query: query, K: 1 << 30})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized-k search status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/search", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-json search status %d, want 400", resp.StatusCode)
	}

	// insert: a new vector becomes immediately searchable.
	n0 := idx.Len()
	vec := make([]float32, idx.Dim())
	copy(vec, idx.Vector(42))
	vec[0] += 0.001
	resp, body = postJSON(t, ts.URL+"/insert", insertRequest{Vector: vec})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d: %s", resp.StatusCode, body)
	}
	var ir insertResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.ID != int32(n0) || ir.N != n0+1 {
		t.Fatalf("insert returned %+v, want id %d n %d", ir, n0, n0+1)
	}
	_, body = postJSON(t, ts.URL+"/search", cluster.SearchRequest{Query: vec, K: 2})
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.IDs[0] != ir.ID {
		t.Fatalf("inserted vector not nearest to itself: got %d, want %d", sr.IDs[0], ir.ID)
	}

	// stats
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.N != n0+1 || st.Shards != 3 || st.Queries < 3 || st.Inserts != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// wrong method
	resp, err = http.Get(ts.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /search status %d, want 405", resp.StatusCode)
	}
}

// TestConcurrentSearchInsert exercises the RWMutex contract: searches and
// inserts racing through the handlers must not corrupt results.
func TestConcurrentSearchInsert(t *testing.T) {
	idx := testIndex(t)
	srv := newServer(idx, 10, 60, 4096)
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	rng := rand.New(rand.NewSource(9))
	dim := idx.Dim()
	// Copy query vectors up front: reading idx.Vector while the insert
	// handler grows the base would race outside the server's lock.
	queries := make([][]float32, 100)
	for i := range queries {
		queries[i] = append([]float32(nil), idx.Vector(i)...)
	}
	inserts := make([][]float32, 20)
	for i := range inserts {
		vec := make([]float32, dim)
		for j := range vec {
			vec[j] = rng.Float32()
		}
		inserts[i] = vec
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if w == 0 && i%5 == 0 {
					resp, body, err := postJSONErr(ts.URL+"/insert", insertRequest{Vector: inserts[i]})
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Errorf("insert failed: %v %s", err, body)
						return
					}
					continue
				}
				resp, body, err := postJSONErr(ts.URL+"/search", cluster.SearchRequest{Query: queries[(w*20+i)%100], K: 5})
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("search failed: %v %s", err, body)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestOpenIndexModes covers the build-at-startup, save, and load flows.
func TestOpenIndexModes(t *testing.T) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 400, Queries: 1, GTK: 1, Dim: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fvecs := filepath.Join(dir, "base.fvecs")
	if err := dataset.SaveFvecsFile(fvecs, ds.Base); err != nil {
		t.Fatal(err)
	}
	bundle := filepath.Join(dir, "idx.nsg")
	opts := withShards(2)
	opts.ExactKNN = true

	var out bytes.Buffer
	built, err := openIndex(openConfig{dataPath: fvecs, savePath: bundle, opts: opts}, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	if built.Len() != 400 || built.Shards() != 2 {
		t.Fatalf("built %d vectors, %d shards", built.Len(), built.Shards())
	}

	loaded, err := openIndex(openConfig{indexPath: bundle, opts: opts}, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	q := make([]float32, ds.Base.Dim)
	copy(q, ds.Base.Row(3))
	wantIDs, wantDists := built.SearchWithPool(q, 5, 40)
	gotIDs, gotDists := loaded.SearchWithPool(q, 5, 40)
	for i := range wantIDs {
		if wantIDs[i] != gotIDs[i] || wantDists[i] != gotDists[i] {
			t.Fatalf("load parity: (%d,%v) vs (%d,%v)", wantIDs[i], wantDists[i], gotIDs[i], gotDists[i])
		}
	}

	if _, err := openIndex(openConfig{opts: opts}, &out); err == nil {
		t.Error("expected error with neither -index nor -data")
	}
	if _, err := openIndex(openConfig{indexPath: bundle, dataPath: fvecs, opts: opts}, &out); err == nil {
		t.Error("expected error with both -index and -data")
	}
	if _, err := openIndex(openConfig{indexPath: filepath.Join(dir, "missing"), opts: opts}, &out); err == nil {
		t.Error("expected error for missing bundle")
	}
	if _, err := openIndex(openConfig{dataPath: fvecs, mmapNoVerify: true, opts: opts}, &out); err == nil {
		t.Error("expected error for -mmap-noverify with -data")
	}
	trusted, err := openIndex(openConfig{indexPath: bundle, mmapNoVerify: true, opts: opts}, &out)
	if err != nil {
		t.Fatalf("-index with -mmap-noverify: %v", err)
	}
	trusted.Close()
	// The layouts older builds wrote, a stream bundle and a one-index
	// record, are refused, verified or not, as format errors that name
	// their layout.
	for _, magic := range []string{"NSGD", "NSGM"} {
		old := filepath.Join(dir, magic+".nsg")
		word := []byte{magic[3], magic[2], magic[1], magic[0]}
		if err := os.WriteFile(old, append(word, make([]byte, 60)...), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, noVerify := range []bool{false, true} {
			if _, err := openIndex(openConfig{indexPath: old, mmapNoVerify: noVerify, opts: opts}, &out); !nsg.IsCorrupt(err) || !strings.Contains(err.Error(), magic) {
				t.Errorf("-mmap-noverify=%v of an %s file: got %v, want a format error naming %s", noVerify, magic, err, magic)
			}
		}
	}
}

// TestServesEveryIndexFile: -index serves a one-NSG file as it serves a
// sharded one — an nsgbuild -out file (Index.Save of a BuildFromFlat
// index, as nsgbuild writes it), verified or with -mmap-noverify — answering
// /search as the index that wrote it.
func TestServesEveryIndexFile(t *testing.T) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 500, Queries: 3, GTK: 1, Dim: 12, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	opts := nsg.DefaultOptions()
	opts.ExactKNN = true
	built, err := nsg.BuildFromFlat(ds.Base.Data, ds.Base.Dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "idx.nsg")
	if err := built.Save(path); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []openConfig{{indexPath: path}, {indexPath: path, mmapNoVerify: true}} {
		var out bytes.Buffer
		idx, err := openIndex(cfg, &out)
		if err != nil {
			t.Fatalf("-index %s (noverify %v): %v", cfg.indexPath, cfg.mmapNoVerify, err)
		}
		t.Cleanup(idx.Close)
		ts := httptest.NewServer(newServer(idx, 10, 60, 4096).mux())
		defer ts.Close()
		for qi := 0; qi < ds.Queries.Rows; qi++ {
			q := ds.Queries.Row(qi)
			resp, body := postJSON(t, ts.URL+"/search", cluster.SearchRequest{Query: q, K: 5, L: 60})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("search status %d: %s", resp.StatusCode, body)
			}
			var sr cluster.SearchResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			wantIDs, wantDists := built.SearchWithPool(q, 5, 60)
			if !slices.Equal(sr.IDs, wantIDs) || !slices.Equal(sr.Dists, wantDists) {
				t.Fatalf("-index %s (noverify %v), query %d: served %v %v, want %v %v",
					cfg.indexPath, cfg.mmapNoVerify, qi, sr.IDs, sr.Dists, wantIDs, wantDists)
			}
		}
	}
}

// TestQuantizedServing: a server over a quantized index (the -quantize
// flag's configuration) must report the quantization mode by name in
// /stats, answer searches with exact distances, and accept inserts
// (encoded with the trained grid). The int4 mode was removed: -quantize
// int4 must fail naming the modes that remain.
func TestQuantizedServing(t *testing.T) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 600, Queries: 4, GTK: 10, Dim: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("sq8", func(t *testing.T) {
		opts := withShards(2)
		opts.ExactKNN = true
		opts.Seed = 3
		opts.Quantize = nsg.QuantSQ8
		data := make([]float32, len(ds.Base.Data))
		copy(data, ds.Base.Data)
		idx, err := nsg.BuildFromFlat(data, ds.Base.Dim, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(idx.Close)

		srv := httptest.NewServer(newServer(idx, 10, 60, 4096).mux())
		defer srv.Close()

		var stats statsResponse
		resp, err := http.Get(srv.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if stats.Quantization != "sq8" {
			t.Fatalf("/stats quantization = %q, want %q", stats.Quantization, "sq8")
		}

		q := make([]float32, ds.Base.Dim)
		copy(q, ds.Base.Row(5))
		_, body := postJSON(t, srv.URL+"/search", cluster.SearchRequest{Query: q, K: 3})
		var sr cluster.SearchResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if len(sr.IDs) != 3 || sr.IDs[0] != 5 || sr.Dists[0] != 0 {
			t.Fatalf("quantized self-search wrong: ids=%v dists=%v", sr.IDs, sr.Dists)
		}

		_, body = postJSON(t, srv.URL+"/insert", insertRequest{Vector: q})
		var ir insertResponse
		if err := json.Unmarshal(body, &ir); err != nil {
			t.Fatal(err)
		}
		if ir.N != 601 {
			t.Fatalf("insert did not grow the quantized index: n=%d", ir.N)
		}
	})
	t.Run("int4", func(t *testing.T) {
		var out bytes.Buffer
		err := run([]string{"-quantize", "int4"}, &out)
		if err == nil || !strings.Contains(err.Error(), "want none or sq8") {
			t.Fatalf("-quantize int4: got %v, want an error naming none or sq8", err)
		}
	})
}

// TestSearchesNotBlockedBySlowInsertBatch is the regression gate for the
// live-update rewrite: before it, /insert held the write half of an
// RWMutex across the whole graph mutation, so a streaming insert batch
// stalled every in-flight /search for the duration of the graph work. Now
// inserts append to a delta buffer and the graph work runs on the
// maintainer goroutine, so searches must keep completing — and keep
// returning correct results — while a slow insert batch is in flight.
func TestSearchesNotBlockedBySlowInsertBatch(t *testing.T) {
	idx := testIndex(t)
	// Aggressive maintenance: every insert immediately eligible for a
	// drain, so the maintainer is doing graph work for the whole window.
	if err := idx.EnableLiveUpdates(nsg.LiveOptions{MaxPending: 1, PublishInterval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	srv := newServer(idx, 10, 60, 4096)
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	rng := rand.New(rand.NewSource(17))
	dim := idx.Dim()
	const batch = 150
	inserts := make([][]float32, batch)
	for i := range inserts {
		vec := make([]float32, dim)
		for j := range vec {
			vec[j] = rng.Float32()
		}
		inserts[i] = vec
	}
	queries := make([][]float32, 32)
	for i := range queries {
		queries[i] = append([]float32(nil), idx.Vector(i)...)
	}

	// Writer: the slow insert batch, issued back to back.
	batchDone := make(chan struct{})
	insertErr := make(chan error, 1)
	go func() {
		defer close(batchDone)
		for i := range inserts {
			resp, body, err := postJSONErr(ts.URL+"/insert", insertRequest{Vector: inserts[i]})
			if err != nil || resp.StatusCode != http.StatusOK {
				insertErr <- fmt.Errorf("insert %d failed: %v %s", i, err, body)
				return
			}
		}
	}()

	// Readers: count searches that complete strictly while the batch is in
	// flight. With the old write-lock serialization this loop made no
	// progress during graph mutations; now every search must return
	// promptly and correctly.
	completed := 0
	for qi := 0; ; qi++ {
		select {
		case <-batchDone:
			qi = -1 // drained below
		default:
		}
		if qi < 0 {
			break
		}
		q := queries[qi%len(queries)]
		resp, body, err := postJSONErr(ts.URL+"/search", cluster.SearchRequest{Query: q, K: 5})
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("search during insert batch failed: %v %s", err, body)
		}
		var sr cluster.SearchResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if len(sr.IDs) != 5 || sr.IDs[0] != int32(qi%len(queries)) || sr.Dists[0] != 0 {
			t.Fatalf("self-search wrong during insert batch: ids=%v dists=%v", sr.IDs, sr.Dists)
		}
		completed++
	}
	select {
	case err := <-insertErr:
		t.Fatal(err)
	default:
	}
	if completed < 5 {
		t.Fatalf("only %d searches completed during a %d-insert batch; the write path is blocking readers", completed, batch)
	}

	// After the dust settles, the batch must be fully searchable and the
	// maintenance counters coherent.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var stats statsResponse
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if stats.DeltaDepth == 0 && stats.Inserts == batch {
			if stats.Drained != batch || stats.Publishes == 0 {
				t.Fatalf("maintenance counters wrong after drain: %+v", stats)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delta never drained: %+v", stats)
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, body := postJSON(t, ts.URL+"/search", cluster.SearchRequest{Query: inserts[batch-1], K: 1})
	var sr cluster.SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.IDs) != 1 || sr.Dists[0] != 0 {
		t.Fatalf("last inserted vector not findable after drain: %+v", sr)
	}
}

// statsQueries reads the served-query counter from /stats.
func statsQueries(t *testing.T, base string) uint64 {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Queries
}

// TestBatchSearchEndpoint: a /search/batch of N queries, plain or under a
// filter, must return exactly what N /search calls return, count as N
// queries in /stats, and reject malformed batches.
func TestBatchSearchEndpoint(t *testing.T) {
	idx := testIndex(t)
	cats := make([]string, idx.Len())
	for i := range cats {
		cats[i] = []string{"a", "b"}[i%2]
	}
	m := nsg.NewMetadata(len(cats))
	if err := m.AddEnum("category", cats); err != nil {
		t.Fatal(err)
	}
	if err := idx.SetMetadata(m); err != nil {
		t.Fatal(err)
	}
	srv := newServer(idx, 10, 60, 4096)
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	queries := make([][]float32, 6)
	for i := range queries {
		queries[i] = append([]float32(nil), idx.Vector(i*7)...)
	}
	for _, filter := range []json.RawMessage{nil, json.RawMessage(`{"col":"category","eq":"a"}`)} {
		before := statsQueries(t, ts.URL)
		resp, body := postJSON(t, ts.URL+"/search/batch", batchSearchRequest{Queries: queries, K: 5, Filter: filter})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("filter %s: batch status %d: %s", filter, resp.StatusCode, body)
		}
		if got := statsQueries(t, ts.URL) - before; got != uint64(len(queries)) {
			t.Fatalf("filter %s: batch of %d bumped /stats queries by %d", filter, len(queries), got)
		}
		var br batchSearchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatal(err)
		}
		if len(br.Results) != len(queries) {
			t.Fatalf("filter %s: got %d results, want %d", filter, len(br.Results), len(queries))
		}
		for i, r := range br.Results {
			_, solo := postJSON(t, ts.URL+"/search", cluster.SearchRequest{Query: queries[i], K: 5, Filter: filter})
			var sr cluster.SearchResponse
			if err := json.Unmarshal(solo, &sr); err != nil {
				t.Fatal(err)
			}
			if len(sr.IDs) != 5 || !slices.Equal(r.IDs, sr.IDs) || !slices.Equal(r.Dists, sr.Dists) {
				t.Fatalf("filter %s query %d: batch %v/%v != /search %v/%v", filter, i, r.IDs, r.Dists, sr.IDs, sr.Dists)
			}
		}
	}

	// Malformed batches: empty, oversized, bad dimension, oversized l.
	resp, _ := postJSON(t, ts.URL+"/search/batch", batchSearchRequest{K: 5})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/search/batch", batchSearchRequest{
		Queries: make([][]float32, maxBatchQueries+1), K: 5})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/search/batch", batchSearchRequest{
		Queries: [][]float32{{1, 2}}, K: 5})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dim-mismatch batch status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/search/batch", batchSearchRequest{
		Queries: queries, K: 5, L: 1 << 30})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized-l batch status %d, want 400", resp.StatusCode)
	}
}

// TestReadyzTracksBacklogAndDraining pins the liveness/readiness split:
// /healthz stays 200 no matter what, while /readyz turns traffic away when
// the delta backlog outruns the threshold or a drain is in progress.
func TestReadyzTracksBacklogAndDraining(t *testing.T) {
	idx := testIndex(t)
	// A maintainer that never publishes on its own, so inserted points stay
	// in the delta buffer until Flush — deterministic backlog control.
	if err := idx.EnableLiveUpdates(nsg.LiveOptions{MaxPending: 1 << 20, PublishInterval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	srv := newServer(idx, 10, 60, 4096)
	srv.readyMaxPending = 2
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("fresh server /readyz = %d", got)
	}
	vec := append([]float32(nil), idx.Vector(0)...)
	for i := 0; i < 3; i++ {
		if resp, _ := postJSON(t, ts.URL+"/insert", insertRequest{Vector: vec}); resp.StatusCode != http.StatusOK {
			t.Fatalf("insert %d status %d", i, resp.StatusCode)
		}
	}
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with backlog 3 > threshold 2 = %d, want 503", got)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("liveness must survive a backlog: /healthz = %d", got)
	}
	idx.Flush()
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz after flush = %d", got)
	}
	srv.draining.Store(true)
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", got)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("liveness must survive draining: /healthz = %d", got)
	}
}

// TestGracefulShutdownSavesInserts runs the real serve loop over an -index
// file, which it maps, inserts a point, cancels the context (the SIGTERM
// path), and checks the bundle saved over the file it had mapped holds the
// acknowledged insert: a server restarted on the same file finds the row.
func TestGracefulShutdownSavesInserts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.nsg")
	if err := testIndex(t).Save(path); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	idx, err := openIndex(openConfig{indexPath: path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(idx.Close)
	srv := newServer(idx, 10, 60, 4096)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.mux()}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- serve(ctx, hs, ln, srv, 5*time.Second, path, &out) }()

	url := "http://" + ln.Addr().String()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	n0 := idx.Len()
	vec := append([]float32(nil), idx.Vector(0)...)
	vec[0] += 0.5
	resp, body := postJSON(t, url+"/insert", insertRequest{Vector: vec})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d: %s", resp.StatusCode, body)
	}
	var ir insertResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down")
	}
	if !srv.draining.Load() {
		t.Fatal("draining flag never set")
	}
	if s := out.String(); !strings.Contains(s, "saved 1 live inserts to "+path) {
		t.Fatalf("shutdown log missing save line:\n%s", s)
	}

	restarted, err := openIndex(openConfig{indexPath: path}, &out)
	if err != nil {
		t.Fatalf("re-saved bundle unreadable: %v", err)
	}
	t.Cleanup(restarted.Close)
	ids, dists := restarted.SearchWithPool(vec, 1, 60)
	if restarted.Len() != n0+1 || len(ids) != 1 || ids[0] != ir.ID || dists[0] != 0 {
		t.Fatalf("restarted on %d vectors (want %d), the inserted row %d answers %v %v", restarted.Len(), n0+1, ir.ID, ids, dists)
	}
}

// TestMappedServing: a server over an -index container must answer
// searches identically to the heap index that saved it, accept /insert
// without changing the file, report the process paging counters and the
// publish age in /stats, and stay ready.
func TestMappedServing(t *testing.T) {
	idx := testIndex(t)
	path := filepath.Join(t.TempDir(), "idx.nsms")
	if err := idx.SaveMapped(path); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	mapped, err := openIndex(openConfig{indexPath: path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mapped.Close)
	if !strings.Contains(out.String(), "mapped "+path) {
		t.Fatalf("startup log missing mapped notice: %q", out.String())
	}

	srv := newServer(mapped, 10, 60, 4096)
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	// Search parity against the heap index the container was saved from.
	for _, id := range []int{0, 11, 599} {
		query := make([]float32, idx.Dim())
		copy(query, idx.Vector(id))
		resp, body := postJSON(t, ts.URL+"/search", cluster.SearchRequest{Query: query, K: 5})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search status %d: %s", resp.StatusCode, body)
		}
		var sr cluster.SearchResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		wantIDs, wantDists := idx.SearchWithPool(query, 5, 60)
		for i := range wantIDs {
			if sr.IDs[i] != wantIDs[i] || sr.Dists[i] != wantDists[i] {
				t.Fatalf("id %d: mapped result (%d,%v) != heap (%d,%v)",
					id, sr.IDs[i], sr.Dists[i], wantIDs[i], wantDists[i])
			}
		}
	}

	// Inserts are accepted, and the file is untouched.
	vec := append([]float32(nil), idx.Vector(0)...)
	vec[0] += 0.5
	resp, body := postJSON(t, ts.URL+"/insert", insertRequest{Vector: vec})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert on mapped index: status %d (%s), want 200", resp.StatusCode, body)
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, file) {
		t.Fatalf("an insert changed the mapped file (%v)", err)
	}

	// Stats surface the paging counters and the publish age.
	hresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(hresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.N != idx.Len()+1 || st.Shards != idx.Shards() || st.Inserts != 1 {
		t.Fatalf("/stats shape %d/%d, %d inserts; want %d/%d, 1", st.N, st.Shards, st.Inserts, idx.Len()+1, idx.Shards())
	}
	if st.RSSBytes == 0 { // Linux CI: /proc is always there
		t.Fatal("/stats rss_bytes = 0")
	}
	if st.LastPublishAgeMs <= 0 {
		t.Fatalf("/stats last_publish_age_ms = %v, want the age of the last publish", st.LastPublishAgeMs)
	}

	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("readyz on mapped index: %d", rresp.StatusCode)
	}
}

// TestFilteredServing: the "filter" clause restricts /search and
// /search/batch to passing points, /stats advertises the metadata columns,
// and malformed or unsupported clauses come back as 400s.
func TestFilteredServing(t *testing.T) {
	idx := testIndex(t)
	n := idx.Len()
	cats := make([]string, n)
	prices := make([]int64, n)
	for i := 0; i < n; i++ {
		cats[i] = []string{"a", "b"}[i%2]
		prices[i] = int64(i)
	}
	m := nsg.NewMetadata(n)
	if err := m.AddEnum("category", cats); err != nil {
		t.Fatal(err)
	}
	if err := m.AddInt64("price", prices); err != nil {
		t.Fatal(err)
	}
	if err := idx.SetMetadata(m); err != nil {
		t.Fatal(err)
	}
	srv := newServer(idx, 10, 60, 4096)
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	query := make([]float32, idx.Dim())
	copy(query, idx.Vector(42)) // even id: category "a"

	// Filtered search returns only passing ids; the self-match passes.
	resp, body := postJSON(t, ts.URL+"/search", cluster.SearchRequest{
		Query: query, K: 5, Stats: true,
		Filter: json.RawMessage(`{"col":"category","eq":"a"}`),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("filtered search status %d: %s", resp.StatusCode, body)
	}
	var sr cluster.SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.IDs) != 5 || sr.IDs[0] != 42 || sr.Dists[0] != 0 {
		t.Fatalf("filtered self-query: %v / %v", sr.IDs, sr.Dists)
	}
	for _, id := range sr.IDs {
		if id%2 != 0 {
			t.Fatalf("id %d fails the category filter", id)
		}
	}

	// Batch shares one compiled filter across the queries.
	resp, body = postJSON(t, ts.URL+"/search/batch", batchSearchRequest{
		Queries: [][]float32{query, query}, K: 3,
		Filter: json.RawMessage(`{"and":[{"col":"category","eq":"a"},{"col":"price","range":[0,99]}]}`),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("filtered batch status %d: %s", resp.StatusCode, body)
	}
	var br batchSearchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 {
		t.Fatalf("%d batch results", len(br.Results))
	}
	for _, r := range br.Results {
		for _, id := range r.IDs {
			if id%2 != 0 || id > 99 {
				t.Fatalf("batch id %d fails the conjunction", id)
			}
		}
	}

	// Error surface: malformed clause, unknown column.
	for _, bad := range []string{
		`{"col":"category"}`,
		`{"col":"nope","eq":"a"}`,
		`{"unknown":1}`,
	} {
		resp, body := postJSON(t, ts.URL+"/search", cluster.SearchRequest{
			Query: query, K: 3, Filter: json.RawMessage(bad),
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("clause %s: status %d (%s), want 400", bad, resp.StatusCode, body)
		}
	}

	// Stats advertise the filterable columns.
	hresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(hresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.MetaCols) != 2 || st.MetaCols[0] != "category:enum" || st.MetaCols[1] != "price:int64" {
		t.Fatalf("/stats meta_cols = %v", st.MetaCols)
	}
}
