//go:build !race

// Allocation budgets are meaningless under the race detector, which
// instruments allocation itself.

package cluster_test

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/cluster/clustertest"
)

// TestFrameRoundTripAllocs is the hop's allocation gate. AllocsPerRun counts
// the whole process, so one warmed Search over a kept connection is both
// ends: the router's encode, write, read and decode, and the backend
// stream's decode, handler call, encode and write. The budget is the one
// response value Search returns — every buffer lives on the pooled
// connection or on the stream's goroutine, and the loop adds nothing to what
// its handler allocates (here nothing). A query under a cancelable context
// additionally pays context.AfterFunc's registration, which is what lets a
// hedge loser or a timed-out attempt unblock.
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
		{"background", context.Background(), 1},
		{"cancelable", cancelable, 1 + 2},
	} {
		search := func() {
			if resp, err := tr.Search(tc.ctx, addr, req); err != nil || len(resp.IDs) != 10 {
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
