package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cluster"
)

// FuzzRouterRequest feeds arbitrary bytes to POST /search on a router over
// three shards of two canned replicas each (testCluster). The handler must
// never panic; a body it cannot serve answers 4xx, never 5xx, since every
// replica is up; and a 200 answer holds as many distances as ids, every id
// distinct.
func FuzzRouterRequest(f *testing.F) {
	topo, _ := testCluster(f)
	srv, _ := newTestRouterServer(f, topo, cluster.PartialFail)
	mux := srv.mux()
	for _, seed := range []string{
		`{"query":[1,2,3]}`,
		`{"query":[1,2,3],"k":5,"l":20}`,
		`{"query":[0.5],"k":24,"filter":{"col":"category","eq":"b"}}`,
		`{"query":[1],"filter":{"and":[{"col":"price","range":[10,90]}]}}`,
		`{"query":[1],"k":100000}`,
		`{"query":[1],"l":-3,"k":0}`,
		`{"query":[]}`,
		`{"query":null}`,
		`{"query":[1],"filter":7}`,
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
			if seen[id] {
				t.Fatalf("id %d repeated in %v", id, resp.IDs)
			}
			seen[id] = true
		}
	})
}
