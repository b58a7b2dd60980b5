//go:build !race

// Allocation budgets are meaningless under the race detector, which
// instruments allocation itself.

package main

import (
	"context"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
)

// TestWireSearchAllocs: a framed search through the real handler allocates
// what the search it wraps allocates (the two result slices
// SearchFilteredWithPool returns) and nothing more: the decode, validation,
// counters and encode around it, on either end of the connection, and the
// router side's decode into a reused answer add nothing (AllocsPerRun counts
// the whole process).
func TestWireSearchAllocs(t *testing.T) {
	idx := testIndex(t)
	srv := newServer(idx, 10, 60, 4096)
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()
	tr := wireTransport(t)
	query := slices.Clone(idx.Vector(9))
	req := &cluster.SearchRequest{Query: query, K: 10, L: 60}
	ctx := context.Background()

	bare := testing.AllocsPerRun(100, func() { idx.SearchFilteredWithPool(query, 10, 60, nil) })
	var resp cluster.SearchResponse
	framed := func() {
		if err := tr.Search(ctx, ts.URL, time.Now().Add(time.Minute), req, &resp); err != nil || len(resp.IDs) != 10 {
			t.Fatalf("%+v, %v", resp, err)
		}
	}
	framed() // dial, upgrade, size the buffers
	if got := testing.AllocsPerRun(100, framed); got > bare {
		t.Errorf("a framed search allocates %.1f times; the search alone %.1f", got, bare)
	}
}
