package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro"
	"repro/internal/cluster"
	"repro/internal/dataset"
)

// FuzzSearchRequest feeds arbitrary bytes to POST /search over a small
// filtered two-shard index. The handler must never panic; a body it cannot
// serve answers 4xx, never 5xx; and a 200 answer holds as many distances as
// ids, every id distinct and in [0, Len()).
func FuzzSearchRequest(f *testing.F) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 300, Queries: 1, GTK: 1, Dim: 8, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	opts := withShards(2)
	opts.ExactKNN = true
	idx, err := nsg.BuildFromFlat(ds.Base.Data, ds.Base.Dim, opts)
	if err != nil {
		f.Fatal(err)
	}
	defer idx.Close()
	n := idx.Len()
	cats, prices := make([]string, n), make([]int64, n)
	for i := range cats {
		cats[i], prices[i] = []string{"a", "b", "c"}[i%3], int64(i)
	}
	m := nsg.NewMetadata(n)
	if err := m.AddEnum("category", cats); err != nil {
		f.Fatal(err)
	}
	if err := m.AddInt64("price", prices); err != nil {
		f.Fatal(err)
	}
	if err := idx.SetMetadata(m); err != nil {
		f.Fatal(err)
	}
	mux := newServer(idx, 10, 40, 256).mux()

	q, _ := json.Marshal(ds.Queries.Row(0))
	for _, seed := range []string{
		`{"query":` + string(q) + `}`,
		`{"query":` + string(q) + `,"k":5,"l":20,"stats":true}`,
		`{"query":` + string(q) + `,"filter":{"col":"category","eq":"b"}}`,
		`{"query":` + string(q) + `,"filter":{"and":[{"col":"price","range":[10,90]},{"col":"category","in":["a","c"]}]}}`,
		`{"query":` + string(q) + `,"filter":{"col":"nope","eq":1}}`,
		`{"query":` + string(q) + `,"k":100000}`,
		`{"query":[1,2,3]}`,
		`{"query":null,"k":-1}`,
		`[]`,
		`{`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
			}
			return
		}
		var resp cluster.SearchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 answer is not a search response: %v: %s", err, rec.Body)
		}
		if len(resp.IDs) != len(resp.Dists) {
			t.Fatalf("%d ids but %d distances", len(resp.IDs), len(resp.Dists))
		}
		seen := map[int32]bool{}
		for _, id := range resp.IDs {
			if id < 0 || int(id) >= n || seen[id] {
				t.Fatalf("id %d out of [0,%d) or repeated in %v", id, n, resp.IDs)
			}
			seen[id] = true
		}
	})
}
