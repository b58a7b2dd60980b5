//go:build !race

// Allocation budgets are meaningless under the race detector, which
// instruments allocation itself.

package cluster_test

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/clustertest"
	"repro/internal/vecmath"
)

// TestFrameRoundTripAllocs is the hop's allocation gate. AllocsPerRun counts
// the whole process, so one warmed Search over a kept connection is both
// ends: the router's encode, write, read and decode, and the backend
// stream's decode, handler call, encode and write. Under a per-call deadline,
// as the router sends every call, the budget is zero: every buffer lives on
// the pooled connection, the reused answer or the stream's goroutine, and
// the loop adds nothing to what its handler allocates (here nothing). A
// query under a cancelable context additionally pays context.AfterFunc's
// registration, which is what lets a hedge loser unblock.
func TestFrameRoundTripAllocs(t *testing.T) {
	ids := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	dists := []float32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	addr := clustertest.Start(t, "", clustertest.Canned(ids, dists)).Addr()
	tr := newTransport(t)
	query := make([]float32, 128)
	req := &cluster.SearchRequest{Query: query, K: 10, L: 60, Filter: []byte(`{"col":"category","eq":"shoes"}`)}
	cancelable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct {
		name   string
		ctx    context.Context
		budget float64
	}{
		{"background", context.Background(), 0},
		{"cancelable", cancelable, 2},
	} {
		var resp cluster.SearchResponse
		search := func() {
			if err := tr.Search(tc.ctx, addr, time.Now().Add(time.Minute), req, &resp); err != nil || len(resp.IDs) != 10 {
				t.Fatalf("%s: %+v, %v", tc.name, resp, err)
			}
		}
		search() // dial, upgrade, size the buffers
		if got := testing.AllocsPerRun(200, search); got > tc.budget {
			t.Errorf("%s: a warmed framed Search allocates %.1f times, budget %.0f", tc.name, got, tc.budget)
		} else {
			t.Logf("%s: %.1f allocs per round trip", tc.name, got)
		}
	}
}

// TestRouterSearchAllocs pins what one routed query over two canned
// backends allocates, both ends counted, under a cancelable context as
// nsgrouter's handlers pass one. Six, against 28 before the per-call
// contexts and reply values went: two for the goroutine that searches the
// first shard (the caller searches the last), and two for
// context.AfterFunc's registration on each replica call, which lets a
// canceled query or a hedge winner unblock it.
func TestRouterSearchAllocs(t *testing.T) {
	ids := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	dists := []float32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	var topo cluster.Topology
	for si := range 2 {
		topo.Shards = append(topo.Shards, cluster.Shard{
			Replicas: []string{clustertest.Start(t, "", clustertest.Canned(ids, dists)).Addr()},
			IDOffset: int32(si * 100),
		})
	}
	rt, err := cluster.New(topo, newTransport(t), cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	query := make([]float32, 128)
	var buf []vecmath.Neighbor
	search := func() {
		if buf, _, err = rt.SearchAppend(ctx, buf[:0], query, 10, 60, nil); err != nil || len(buf) != 10 {
			t.Fatalf("%v, %v", buf, err)
		}
	}
	search()
	const budget = 6
	if got := testing.AllocsPerRun(200, search); got > budget {
		t.Errorf("a routed query allocates %.1f times, budget %d", got, budget)
	} else {
		t.Logf("%.1f allocs per routed query", got)
	}
}

// TestSearchCodecAllocs is the JSON edge's gate: into warm buffers, decoding
// a 128-d request with a filter and encoding a 10-result reply allocate
// nothing.
func TestSearchCodecAllocs(t *testing.T) {
	q := make([]float32, 128)
	for i := range q {
		q[i] = float32(i)*0.37 - 20
	}
	body, err := json.Marshal(cluster.SearchRequest{Query: q, K: 10, L: 60, Filter: []byte(`{"and":[{"col":"category","eq":"shoes"},{"col":"price","range":[10,90]}]}`)})
	if err != nil {
		t.Fatal(err)
	}
	var req cluster.SearchRequest
	decode := func() {
		if err := cluster.DecodeSearchRequest(body, &req); err != nil || len(req.Query) != 128 || len(req.Filter) == 0 {
			t.Fatalf("%+v, %v", req, err)
		}
	}
	decode()
	if got := testing.AllocsPerRun(200, decode); got != 0 {
		t.Errorf("decoding a 128-d filtered request allocates %.1f times", got)
	}
	resp := cluster.SearchResponse{IDs: make([]int32, 10), Dists: q[:10]}
	var out []byte
	encode := func() {
		if out, err = cluster.AppendSearchResponse(out[:0], &resp); err != nil {
			t.Fatal(err)
		}
	}
	encode()
	if got := testing.AllocsPerRun(200, encode); got != 0 {
		t.Errorf("encoding a 10-result reply allocates %.1f times", got)
	}
}
