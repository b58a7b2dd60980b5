package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/clustertest"
)

const nShards = 3

// testCluster boots 3 fake shards x 2 replicas with interleaved distances
// (shard si's j-th neighbor has dist j*3+si) and IDOffset si*100.
func testCluster(t testing.TB) (cluster.Topology, [][]*clustertest.Backend) {
	t.Helper()
	var topo cluster.Topology
	backends := make([][]*clustertest.Backend, nShards)
	for si := 0; si < nShards; si++ {
		var ids []int32
		var dists []float32
		for j := 0; j < 8; j++ {
			ids = append(ids, int32(j))
			dists = append(dists, float32(j*nShards+si))
		}
		h := clustertest.Canned(ids, dists)
		a, b := clustertest.Start(t, "", h), clustertest.Start(t, "", h)
		backends[si] = []*clustertest.Backend{a, b}
		topo.Shards = append(topo.Shards, cluster.Shard{
			Replicas: []string{a.URL, b.URL},
			IDOffset: int32(si * 100),
		})
	}
	return topo, backends
}

func wantIDs(k int, missing ...int) []int32 {
	type nb struct {
		id   int32
		dist float32
	}
	var all []nb
	for si := 0; si < nShards; si++ {
		if slices.Contains(missing, si) {
			continue
		}
		for j := 0; j < 8; j++ {
			all = append(all, nb{int32(si*100 + j), float32(j*nShards + si)})
		}
	}
	slices.SortFunc(all, func(a, b nb) int {
		if a.dist != b.dist {
			if a.dist < b.dist {
				return -1
			}
			return 1
		}
		return int(a.id - b.id)
	})
	out := make([]int32, 0, k)
	for i := 0; i < k && i < len(all); i++ {
		out = append(out, all[i].id)
	}
	return out
}

func newTestRouterServer(t testing.TB, topo cluster.Topology, policy cluster.PartialPolicy) (*routerServer, *httptest.Server) {
	t.Helper()
	tr := cluster.NewHTTPTransport()
	t.Cleanup(tr.CloseIdleConnections)
	rt, err := cluster.New(topo, tr, cluster.Options{
		AttemptTimeout: 2 * time.Second,
		MaxAttempts:    4,
		RetryBackoff:   time.Millisecond,
		Partial:        policy,
		EjectAfter:     2,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	srv := newRouterServer(rt, 6, 32, 4096)
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postSearch(t *testing.T, url string, body any) (*http.Response, cluster.SearchResponse, []byte) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/search", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var sr cluster.SearchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatalf("bad response %s: %v", raw, err)
		}
	}
	return resp, sr, raw
}

func TestRouterServerMergesAndTranslatesIDs(t *testing.T) {
	topo, _ := testCluster(t)
	_, ts := newTestRouterServer(t, topo, cluster.PartialFail)

	resp, sr, raw := postSearch(t, ts.URL, map[string]any{"query": []float32{1, 2}, "k": 6})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if sr.Degraded || len(sr.Missing) > 0 {
		t.Fatalf("healthy cluster answered degraded: %s", raw)
	}
	if exp := wantIDs(6); !slices.Equal(sr.IDs, exp) {
		t.Fatalf("ids = %v, want %v", sr.IDs, exp)
	}
	if len(sr.Dists) != 6 || sr.Dists[0] != 0 || sr.Dists[5] != 5 {
		t.Fatalf("dists = %v", sr.Dists)
	}
}

func TestRouterServerFailsOverToSiblingReplica(t *testing.T) {
	topo, backends := testCluster(t)
	_, ts := newTestRouterServer(t, topo, cluster.PartialFail)
	backends[0][0].Close() // connection refused: instant failure, retry hits sibling

	for i := 0; i < 3; i++ {
		resp, sr, raw := postSearch(t, ts.URL, map[string]any{"query": []float32{1}, "k": 6})
		if resp.StatusCode != http.StatusOK || sr.Degraded {
			t.Fatalf("query %d after replica death: status %d degraded %v: %s", i, resp.StatusCode, sr.Degraded, raw)
		}
		if exp := wantIDs(6); !slices.Equal(sr.IDs, exp) {
			t.Fatalf("ids = %v, want %v", sr.IDs, exp)
		}
	}
}

func TestRouterServerPartialPolicies(t *testing.T) {
	t.Run("fail", func(t *testing.T) {
		topo, backends := testCluster(t)
		_, ts := newTestRouterServer(t, topo, cluster.PartialFail)
		backends[1][0].Close()
		backends[1][1].Close()
		resp, _, raw := postSearch(t, ts.URL, map[string]any{"query": []float32{1}, "k": 6})
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503: %s", resp.StatusCode, raw)
		}
		var body struct {
			Error   string `json:"error"`
			Missing []int  `json:"missing_shards"`
		}
		if err := json.Unmarshal(raw, &body); err != nil || body.Error == "" || !slices.Equal(body.Missing, []int{1}) {
			t.Fatalf("503 body = %s (err %v)", raw, err)
		}
	})

	t.Run("serve", func(t *testing.T) {
		topo, backends := testCluster(t)
		_, ts := newTestRouterServer(t, topo, cluster.PartialServe)
		backends[1][0].Close()
		backends[1][1].Close()
		resp, sr, raw := postSearch(t, ts.URL, map[string]any{"query": []float32{1}, "k": 6})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200: %s", resp.StatusCode, raw)
		}
		if !sr.Degraded || !slices.Equal(sr.Missing, []int{1}) {
			t.Fatalf("response not flagged degraded/missing [1]: %s", raw)
		}
		if exp := wantIDs(6, 1); !slices.Equal(sr.IDs, exp) {
			t.Fatalf("ids = %v, want %v", sr.IDs, exp)
		}
	})
}

func TestRouterServerStatsAndReadyz(t *testing.T) {
	topo, backends := testCluster(t)
	srv, ts := newTestRouterServer(t, topo, cluster.PartialFail)

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}

	if code, raw := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz %d: %s", code, raw)
	}
	if code, raw := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz %d: %s", code, raw)
	}
	postSearch(t, ts.URL, map[string]any{"query": []float32{1}, "k": 6})
	code, raw := get("/stats")
	if code != http.StatusOK {
		t.Fatalf("stats %d: %s", code, raw)
	}
	var st statsResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != nShards || st.Replicas != 2*nShards || st.Queries != 1 || st.Partial != "fail" {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.Health) != nShards || !st.Health[0][0].Healthy {
		t.Fatalf("health = %+v", st.Health)
	}

	// Take shard 1 fully down and let probes eject it: a fail-policy router
	// stops being ready; liveness is unaffected.
	backends[1][0].Close()
	backends[1][1].Close()
	srv.rt.ProbeNow()
	srv.rt.ProbeNow()
	if code, raw := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with shard 1 ejected = %d, want 503: %s", code, raw)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while unready = %d", code)
	}

	// Draining always flips readiness off.
	srv.draining.Store(true)
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatal("readyz while draining must be 503")
	}
}

func TestRouterServerServePolicyReadyz(t *testing.T) {
	topo, backends := testCluster(t)
	srv, ts := newTestRouterServer(t, topo, cluster.PartialServe)
	backends[1][0].Close()
	backends[1][1].Close()
	srv.rt.ProbeNow()
	srv.rt.ProbeNow()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("serve-policy router with 2/3 shards up must stay ready, got %d", resp.StatusCode)
	}
}

func TestRouterServerRejectsBadRequests(t *testing.T) {
	topo, _ := testCluster(t)
	_, ts := newTestRouterServer(t, topo, cluster.PartialFail)
	for name, body := range map[string]any{
		"empty-query": map[string]any{"query": []float32{}},
		"huge-l":      map[string]any{"query": []float32{1}, "l": 1 << 20},
	} {
		resp, _, raw := postSearch(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", name, resp.StatusCode, raw)
		}
	}
}

func TestRunFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Fatal("run without -topology succeeded")
	}
	if err := run([]string{"-topology", "/does/not/exist.json"}, &out); err == nil {
		t.Fatal("run with missing topology file succeeded")
	}
	path := filepath.Join(t.TempDir(), "topo.json")
	os.WriteFile(path, []byte(`{"shards":[{"replicas":["127.0.0.1:1"]}]}`), 0o644)
	if err := run([]string{"-topology", path, "-partial", "bogus"}, &out); err == nil {
		t.Fatal("run with bogus -partial succeeded")
	}
}

// TestRouterForwardsFilter: the "filter" clause reaches every shard backend
// verbatim, and a clause the backends refuse is the client's 400 — answered
// with the backend's message, retried nowhere, charged to no replica — not a
// cluster outage.
func TestRouterForwardsFilter(t *testing.T) {
	var topo cluster.Topology
	seen := make([]chan string, nShards)
	for si := 0; si < nShards; si++ {
		ch := make(chan string, 8)
		seen[si] = ch
		fs := clustertest.Start(t, "", func(req *cluster.SearchRequest) ([]int32, []float32, error) {
			if bytes.Contains(req.Filter, []byte("bad-column")) {
				return nil, nil, cluster.BadRequest("filter: unknown column %q", "bad-column")
			}
			ch <- string(req.Filter)
			return []int32{0}, []float32{1}, nil
		})
		topo.Shards = append(topo.Shards, cluster.Shard{Replicas: []string{fs.URL}, IDOffset: int32(si * 100)})
	}
	srv, ts := newTestRouterServer(t, topo, cluster.PartialFail)

	clause := `{"col":"category","eq":"shoes"}`
	resp, sr, raw := postSearch(t, ts.URL, map[string]any{
		"query": []float32{1, 2}, "k": 3, "filter": json.RawMessage(clause),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if len(sr.IDs) != 3 {
		t.Fatalf("ids = %v", sr.IDs)
	}
	for si := 0; si < nShards; si++ {
		select {
		case got := <-seen[si]:
			if got != clause {
				t.Fatalf("shard %d saw filter %q, want %q", si, got, clause)
			}
		default:
			t.Fatalf("shard %d never saw the filter clause", si)
		}
	}

	// A clause every backend rejects, more times than EjectAfter (2) — with
	// one replica per shard, counting any of them would eject the fleet.
	before := srv.rt.Metrics()
	for i := 0; i < 3; i++ {
		resp, _, raw = postSearch(t, ts.URL, map[string]any{
			"query": []float32{1, 2}, "k": 3, "filter": json.RawMessage(`{"col":"bad-column","eq":1}`),
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad clause: status %d (%s), want 400", resp.StatusCode, raw)
		}
		if !bytes.Contains(raw, []byte("unknown column")) {
			t.Fatalf("bad clause error lacks the backend's message: %s", raw)
		}
	}
	if m := srv.rt.Metrics(); m.Retries != before.Retries || m.Ejections != 0 || m.Attempts != before.Attempts+3*nShards {
		t.Fatalf("bad clauses were retried or ejected a replica: before %+v, after %+v", before, m)
	}
	statsResp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	for si, sh := range st.Health {
		for _, rh := range sh {
			if !rh.Healthy || rh.Fails != 0 {
				t.Fatalf("shard %d replica %s charged for a client's bad filter: %+v", si, rh.Addr, rh)
			}
		}
	}
	if readyz, err := http.Get(ts.URL + "/readyz"); err != nil || readyz.StatusCode != http.StatusOK {
		t.Fatalf("router /readyz after bad clauses: %v, %v", readyz, err)
	} else {
		readyz.Body.Close()
	}
}
