package core

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graphutil"
	"repro/internal/knngraph"
	"repro/internal/vecmath"
)

// referenceSearch is the seed repository's Algorithm 1 verbatim: fresh
// candidate pool, map-based visited set, pointer-chasing adjacency lists.
// It is the oracle the zero-allocation engine must match byte for byte.
func referenceSearch(adj [][]int32, base vecmath.Matrix, query []float32, starts []int32, k, l int, counter *vecmath.Counter, visited *[]vecmath.Neighbor) SearchResult {
	if l < k {
		l = k
	}
	p := newPool(l)
	seen := make(map[int32]struct{}, l*4)
	for _, s := range starts {
		if _, dup := seen[s]; dup {
			continue
		}
		seen[s] = struct{}{}
		d := counter.L2(query, base.Row(int(s)))
		if visited != nil {
			*visited = append(*visited, vecmath.Neighbor{ID: s, Dist: d})
		}
		p.insert(s, d)
	}
	hops := 0
	next := 0
	for next < p.len() {
		if p.checked(next) {
			next++
			continue
		}
		p.check(next)
		curID := p.id(next)
		hops++
		lowest := p.len()
		for _, nb := range adj[curID] {
			if _, dup := seen[nb]; dup {
				continue
			}
			seen[nb] = struct{}{}
			d := counter.L2(query, base.Row(int(nb)))
			if visited != nil {
				*visited = append(*visited, vecmath.Neighbor{ID: nb, Dist: d})
			}
			if pos := p.insert(nb, d); pos >= 0 && pos < lowest {
				lowest = pos
			}
		}
		if lowest < next {
			next = lowest
		}
	}
	k = min(k, p.len())
	out := make([]vecmath.Neighbor, k)
	for i := 0; i < k; i++ {
		out[i] = p.neighbor(i)
	}
	return SearchResult{Neighbors: out, Hops: hops}
}

func sameResult(t *testing.T, trial int, label string, got, want SearchResult) {
	t.Helper()
	if got.Hops != want.Hops {
		t.Fatalf("trial %d: %s hops = %d, want %d", trial, label, got.Hops, want.Hops)
	}
	if len(got.Neighbors) != len(want.Neighbors) {
		t.Fatalf("trial %d: %s returned %d neighbors, want %d", trial, label, len(got.Neighbors), len(want.Neighbors))
	}
	for i := range want.Neighbors {
		if got.Neighbors[i] != want.Neighbors[i] {
			t.Fatalf("trial %d: %s neighbor[%d] = %v, want %v", trial, label, i, got.Neighbors[i], want.Neighbors[i])
		}
	}
}

// TestFlatSearchParity is the layout/engine parity property test: across
// random graphs, seeds, and (k,l) combinations, the context-reusing search
// over the flat fixed-stride layout and the legacy adjacency-list entry
// point must both return results byte-identical (ids, dists, hops, and the
// collected visited sequence) to the seed's map-based reference.
func TestFlatSearchParity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ctx := NewSearchContext() // reused across every trial on purpose
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(150)
		dim := 1 + rng.Intn(8)
		base := vecmath.NewMatrix(n, dim)
		for i := range base.Data {
			base.Data[i] = rng.Float32()
		}
		adj := make([][]int32, n)
		for i := 0; i < n; i++ {
			deg := rng.Intn(7) // some nodes have no out-edges at all
			for d := 0; d < deg; d++ {
				adj[i] = append(adj[i], int32(rng.Intn(n)))
			}
		}
		flat := graphutil.Flatten(&graphutil.Graph{Adj: adj})
		if err := flat.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		query := make([]float32, dim)
		for j := range query {
			query[j] = rng.Float32()
		}
		// Starts may contain duplicates: the dedupe behavior must match too.
		starts := make([]int32, 1+rng.Intn(3))
		for s := range starts {
			starts[s] = int32(rng.Intn(n))
		}
		k := 1 + rng.Intn(15)
		l := k + rng.Intn(30)

		var wantVisited, listVisited, flatVisited []vecmath.Neighbor
		want := referenceSearch(adj, base, query, starts, k, l, nil, &wantVisited)
		list := SearchOnGraph(adj, base, query, starts, k, l, nil, &listVisited)
		flatRes := SearchOnGraphCtx(ctx, flat, base, query, starts, k, l, nil, &flatVisited)

		sameResult(t, trial, "SearchOnGraph(list)", list, want)
		sameResult(t, trial, "SearchOnGraphCtx(flat)", flatRes, want)
		for label, got := range map[string][]vecmath.Neighbor{"list": listVisited, "flat": flatVisited} {
			if len(got) != len(wantVisited) {
				t.Fatalf("trial %d: %s collected %d visited, want %d", trial, label, len(got), len(wantVisited))
			}
			for i := range wantVisited {
				if got[i] != wantVisited[i] {
					t.Fatalf("trial %d: %s visited[%d] = %v, want %v", trial, label, i, got[i], wantVisited[i])
				}
			}
		}
	}
}

// TestNSGSearchMatchesLegacyLayout builds a real index and checks the
// whole-index query paths (flat view + context pool) against the reference
// adjacency-list traversal of the same graph.
func TestNSGSearchMatchesLegacyLayout(t *testing.T) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 600, Queries: 40, GTK: 10, Dim: 24, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	knn, err := knngraph.BuildExact(ds.Base, 20)
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := NSGBuild(knn, ds.Base, BuildParams{L: 30, M: 15, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewSearchContext()
	adj := idx.flat.ToGraph().Adj
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		q := ds.Queries.Row(qi)
		want := referenceSearch(adj, ds.Base, q, []int32{idx.Navigating}, 10, 40, nil, nil)
		got := idx.Query(ctx, q, Query{K: 10, L: 40})
		sameResult(t, qi, "NSG.Query", got, want)
		plain := idx.Search(q, 10, 40, nil)
		for i := range want.Neighbors {
			if plain[i] != want.Neighbors[i] {
				t.Fatalf("query %d: NSG.Search[%d] = %v, want %v", qi, i, plain[i], want.Neighbors[i])
			}
		}
	}
}

// TestSearchCtxZeroAlloc enforces the PR's headline claim at the unit
// level: once a context is warm, a flat-graph search performs zero heap
// allocations.
func TestSearchCtxZeroAlloc(t *testing.T) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 500, Queries: 8, GTK: 1, Dim: 32, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	knn, err := knngraph.BuildExact(ds.Base, 15)
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := NSGBuild(knn, ds.Base, BuildParams{L: 30, M: 15, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewSearchContext()
	// Warm the context (buffers size themselves on first use).
	idx.Query(ctx, ds.Queries.Row(0), Query{K: 10, L: 40})
	qi := 0
	allocs := testing.AllocsPerRun(200, func() {
		res := idx.Query(ctx, ds.Queries.Row(qi%ds.Queries.Rows), Query{K: 10, L: 40}).Neighbors
		if len(res) == 0 {
			t.Fatal("empty result")
		}
		qi++
	})
	if allocs != 0 {
		t.Fatalf("Query allocated %.1f times per query, want 0", allocs)
	}
}
