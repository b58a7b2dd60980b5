package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/cluster"
)

func wireTransport(t *testing.T) *cluster.HTTPTransport {
	tr := cluster.NewHTTPTransport()
	t.Cleanup(tr.CloseIdleConnections)
	return tr
}

// search is one Search with no deadline into a fresh answer.
func search(tr cluster.Transport, ctx context.Context, addr string, req *cluster.SearchRequest) (*cluster.SearchResponse, error) {
	resp := new(cluster.SearchResponse)
	if err := tr.Search(ctx, addr, time.Time{}, req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// TestWireMatchesJSONSearch: a frame on /wire is POST /search without the
// JSON — same answers bit for bit (plain, filtered, defaulted k and l), same
// refusals (as 400 error frames that leave the stream open), same /stats
// counters.
func TestWireMatchesJSONSearch(t *testing.T) {
	idx := testIndex(t)
	n := idx.Len()
	cats := make([]string, n)
	for i := range cats {
		cats[i] = []string{"a", "b"}[i%2]
	}
	m := nsg.NewMetadata(n)
	if err := m.AddEnum("category", cats); err != nil {
		t.Fatal(err)
	}
	if err := idx.SetMetadata(m); err != nil {
		t.Fatal(err)
	}
	srv := newServer(idx, 10, 60, 64)
	ts := httptest.NewUnstartedServer(srv.mux())
	// Per-request deadlines far shorter than this test: a stream that kept
	// them after the upgrade would be cut under it.
	ts.Config.ReadTimeout, ts.Config.WriteTimeout = 50*time.Millisecond, 50*time.Millisecond
	ts.Start()
	defer ts.Close()
	tr := wireTransport(t)
	ctx := context.Background()
	onlyStream := func() net.Conn {
		t.Helper()
		srv.streams.mu.Lock()
		defer srv.streams.mu.Unlock()
		if len(srv.streams.conns) != 1 {
			t.Fatalf("%d streams open, want the one the transport keeps", len(srv.streams.conns))
		}
		for c := range srv.streams.conns {
			return c
		}
		return nil
	}
	if _, err := search(tr, ctx, ts.URL, &cluster.SearchRequest{Query: slices.Clone(idx.Vector(1))}); err != nil {
		t.Fatal(err)
	}
	first := onlyStream()
	time.Sleep(150 * time.Millisecond)

	for _, tc := range []struct {
		name   string
		k, l   int
		filter string
	}{
		{"plain", 5, 40, ""},
		{"defaults", 0, 0, ""},
		{"filtered", 7, 60, `{"col":"category","eq":"a"}`},
	} {
		for _, row := range []int{0, 42, 599} {
			query := slices.Clone(idx.Vector(row))
			jreq := cluster.SearchRequest{Query: query, K: tc.k, L: tc.l}
			wreq := &cluster.SearchRequest{Query: query, K: tc.k, L: tc.l}
			if tc.filter != "" {
				jreq.Filter = json.RawMessage(tc.filter)
				wreq.Filter = []byte(tc.filter)
			}
			before := srv.queries.Load()
			got, err := search(tr, ctx, ts.URL, wreq)
			if err != nil {
				t.Fatalf("%s row %d: %v", tc.name, row, err)
			}
			if srv.queries.Load() != before+1 {
				t.Fatalf("%s: a framed search did not count in /stats queries", tc.name)
			}
			resp, body := postJSON(t, ts.URL+"/search", jreq)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: JSON status %d: %s", tc.name, resp.StatusCode, body)
			}
			var want cluster.SearchResponse
			if err := json.Unmarshal(body, &want); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.IDs, want.IDs) || !slices.Equal(got.Dists, want.Dists) {
				t.Fatalf("%s row %d: frame answered %v %v, JSON %v %v", tc.name, row, got.IDs, got.Dists, want.IDs, want.Dists)
			}
		}
	}

	query := slices.Clone(idx.Vector(3))
	for name, req := range map[string]*cluster.SearchRequest{
		"wrong-dim":      {Query: []float32{1, 2}, K: 5},
		"k-over-maxl":    {Query: query, K: 65},
		"l-over-maxl":    {Query: query, K: 5, L: 1 << 20},
		"unknown-column": {Query: query, K: 5, Filter: []byte(`{"col":"nope","eq":"a"}`)},
		"bad-clause":     {Query: query, K: 5, Filter: []byte(`{"unknown":1}`)},
		"not-json":       {Query: query, K: 5, Filter: []byte(`{`)},
	} {
		before := srv.queries.Load()
		_, err := search(tr, ctx, ts.URL, req)
		var re *cluster.ReplicaError
		if !errors.As(err, &re) || re.Status != http.StatusBadRequest || re.Msg == "" {
			t.Fatalf("%s: got %v, want a 400 *ReplicaError", name, err)
		}
		if srv.queries.Load() != before {
			t.Fatalf("%s: a refused frame counted as a query", name)
		}
	}
	// All of the above, refusals included, travelled on the first stream,
	// which outlived the HTTP server's request deadlines.
	if onlyStream() != first {
		t.Fatal("the transport had to redial: the upgraded stream did not survive")
	}

	// The edge stays where it was: a plain GET is not an upgrade, and a
	// draining server takes no new streams.
	resp, err := http.Get(ts.URL + cluster.WirePath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired {
		t.Fatalf("GET /wire without Upgrade: status %d, want 426", resp.StatusCode)
	}
	srv.draining.Store(true)
	_, err = search(wireTransport(t), ctx, ts.URL, &cluster.SearchRequest{Query: query, K: 5})
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("upgrade on a draining server: %v, want a 503 refusal", err)
	}
}

// TestWireDrain runs the real serve loop with two upgraded streams — one
// idle, one inside a search — and cancels the serve context (the SIGTERM
// path): the idle stream closes at once, the in-flight frame is answered,
// serve returns inside -drain with the shutdown re-save done, and a router
// still pointed at the server fails fast instead of hanging.
func TestWireDrain(t *testing.T) {
	idx := testIndex(t)
	path := filepath.Join(t.TempDir(), "idx.nsg")
	srv := newServer(idx, 10, 60, 4096)

	// The real mux, with /wire's handler made to block on demand.
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.Handle("/", srv.mux())
	mux.HandleFunc("GET /wire", func(w http.ResponseWriter, r *http.Request) {
		srv.serveWire(w, r, func(req *cluster.SearchRequest) ([]int32, []float32, error) {
			if req.K == 7 {
				entered <- struct{}{}
				<-release
			}
			return srv.frameSearch(req)
		})
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	hs := &http.Server{Handler: mux}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	const drain = 5 * time.Second
	done := make(chan error, 1)
	go func() { done <- serve(ctx, hs, ln, srv, drain, path, &out) }()

	query := slices.Clone(idx.Vector(5))
	if resp, body := postJSON(t, "http://"+addr+"/insert", insertRequest{Vector: query}); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d: %s", resp.StatusCode, body)
	}

	idle, busy := wireTransport(t), wireTransport(t)
	if _, err := search(idle, context.Background(), addr, &cluster.SearchRequest{Query: query, K: 3}); err != nil {
		t.Fatal(err)
	}
	type result struct {
		resp *cluster.SearchResponse
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := search(busy, context.Background(), addr, &cluster.SearchRequest{Query: query, K: 7})
		inflight <- result{resp, err}
	}()
	<-entered

	start := time.Now()
	cancel()

	// The idle stream is closed by the drain, not left to the blocked
	// handler: a router using it redials, is refused, and knows within
	// moments. (Had the stream survived, this query would sit behind
	// nothing and succeed.)
	fastCtx, fastCancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer fastCancel()
	deadline := time.Now().Add(3 * time.Second)
	for {
		_, err := search(idle, fastCtx, addr, &cluster.SearchRequest{Query: query, K: 3})
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("router hung on a draining backend: %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle stream still answering 3s into the drain")
		}
		time.Sleep(time.Millisecond) // the cancel has not reached serve yet
	}
	select {
	case err := <-done:
		t.Fatalf("serve returned (%v) with a frame still in flight", err)
	default:
	}

	close(release)
	got := <-inflight
	if got.err != nil || len(got.resp.IDs) != 7 {
		t.Fatalf("in-flight frame was not answered through the drain: %+v, %v", got.resp, got.err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(drain):
		t.Fatal("serve did not return inside -drain")
	}
	if el := time.Since(start); el >= drain {
		t.Fatalf("drain took %v, the whole -drain budget", el)
	}
	if s := out.String(); !strings.Contains(s, "saved 1 live inserts") {
		t.Fatalf("shutdown re-save did not run:\n%s", s)
	}
	srv.streams.mu.Lock()
	left := len(srv.streams.conns)
	srv.streams.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d streams still registered after serve returned", left)
	}
	// The stream that carried the in-flight frame closed after its reply.
	if _, err := search(busy, fastCtx, addr, &cluster.SearchRequest{Query: query, K: 3}); err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("query after shutdown: %v, want a prompt failure", err)
	}
}

// TestWireDrainDeadline: a frame that outlives -drain does not hold the
// process: its stream is cut when the budget runs out.
func TestWireDrainDeadline(t *testing.T) {
	srv := newServer(testIndex(t), 10, 60, 4096)
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /wire", func(w http.ResponseWriter, r *http.Request) {
		srv.serveWire(w, r, func(req *cluster.SearchRequest) ([]int32, []float32, error) {
			entered <- struct{}{}
			<-release
			return nil, nil, nil
		})
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- serve(ctx, &http.Server{Handler: mux}, ln, srv, 50*time.Millisecond, "", &out) }()

	failed := make(chan error, 1)
	tr := wireTransport(t)
	go func() {
		_, err := search(tr, context.Background(), ln.Addr().String(), &cluster.SearchRequest{Query: []float32{1}, K: 1})
		failed <- err
	}()
	<-entered
	cancel()
	select {
	case err := <-failed:
		if err == nil {
			t.Fatal("a frame cut by the drain deadline returned an answer")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("router still waiting 5s after a 50ms drain budget ran out")
	}
	close(release) // the handler returns; only now can its stream finish
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve never returned")
	}
}
