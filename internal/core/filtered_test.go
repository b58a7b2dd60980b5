package core

import (
	"testing"

	"repro/internal/vecmath"
)

// makeBits builds a Filter over n public ids passing those where keep(id).
func makeBits(n int, keep func(int32) bool) *Filter {
	f := &Filter{Bits: make([]uint64, (n+63)/64)}
	for id := 0; id < n; id++ {
		if keep(int32(id)) {
			f.Bits[id>>6] |= 1 << uint(id&63)
			f.Count++
		}
	}
	return f
}

// bruteRef is the reference: exact top-k among passing, non-dead public ids.
func bruteRef(x *NSG, q []float32, k int, flt *Filter, dead *Tombstones) []vecmath.Neighbor {
	var all []vecmath.Neighbor
	for pub := int32(0); int(pub) < x.Base.Rows; pub++ {
		if !bitTest(flt.Bits, pub) || (dead != nil && dead.Deleted(pub)) {
			continue
		}
		all = append(all, vecmath.Neighbor{ID: pub, Dist: vecmath.L2(q, x.Base.Row(int(x.InternalID(pub))))})
	}
	sortNeighbors(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func sortNeighbors(ns []vecmath.Neighbor) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && vecmath.CompareNeighbors(ns[j], ns[j-1]) < 0; j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

func recallOf(got, want []vecmath.Neighbor) float64 {
	if len(want) == 0 {
		return 1
	}
	hit := 0
	for _, w := range want {
		for _, g := range got {
			if g.ID == w.ID {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(len(want))
}

// TestFilteredParity gates the filtered search against the exact
// brute-force-with-filter reference at selectivities spanning the traversal
// regime (50%) and the brute-force fallback regime (10% of 1200 points),
// on both a plain and a relaid index.
func TestFilteredParity(t *testing.T) {
	base := testBase(t, 1200, 24, 3)
	plain := buildQuantTestNSG(t, base.Clone())
	relay := buildQuantTestNSG(t, base.Clone())
	relay.Relayout()

	queries := testBase(t, 30, 24, 4)
	const k, l = 10, 64
	filters := []struct {
		name      string
		flt       *Filter
		wantExact bool // fallback regime: must equal the reference exactly
		minRecall float64
	}{
		{"sel50", makeBits(1200, func(id int32) bool { return id%2 == 0 }), false, 0.95},
		{"sel10", makeBits(1200, func(id int32) bool { return id%10 == 0 }), true, 1},
	}
	for _, idx := range []*NSG{plain, relay} {
		ctx := NewSearchContext()
		for _, tc := range filters {
			sum := 0.0
			for qi := 0; qi < queries.Rows; qi++ {
				q := queries.Row(qi)
				got := idx.SearchFilteredCtx(ctx, q, k, l, nil, tc.flt, nil)
				want := bruteRef(idx, q, k, tc.flt, nil)
				for _, nb := range got {
					if !bitTest(tc.flt.Bits, nb.ID) {
						t.Fatalf("%s: result id %d does not pass the filter", tc.name, nb.ID)
					}
				}
				if tc.wantExact {
					if len(got) != len(want) {
						t.Fatalf("%s q%d: got %d results, want %d", tc.name, qi, len(got), len(want))
					}
					for i := range got {
						if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
							t.Fatalf("%s q%d: result %d = %v, want %v", tc.name, qi, i, got[i], want[i])
						}
					}
				}
				sum += recallOf(got, want)
			}
			if avg := sum / float64(queries.Rows); avg < tc.minRecall {
				t.Errorf("%s: avg recall %.3f < %.2f", tc.name, avg, tc.minRecall)
			}
		}
	}
}

// TestFilteredQuantParity runs the same gate through the SQ8 and int4
// two-phase paths: results pass the filter, distances are exact float32,
// recall stays near the reference.
func TestFilteredQuantParity(t *testing.T) {
	base := testBase(t, 1200, 24, 5)
	for _, mode := range []string{"sq8", "int4"} {
		idx := buildQuantTestNSG(t, base.Clone())
		var err error
		if mode == "sq8" {
			err = idx.EnableQuantization(nil)
		} else {
			err = idx.EnableQuantization4(nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		flt := makeBits(1200, func(id int32) bool { return id%2 == 0 })
		queries := testBase(t, 30, 24, 6)
		ctx := NewSearchContext()
		sum := 0.0
		for qi := 0; qi < queries.Rows; qi++ {
			q := queries.Row(qi)
			got := idx.SearchFilteredCtx(ctx, q, 10, 64, nil, flt, nil)
			for _, nb := range got {
				if !bitTest(flt.Bits, nb.ID) {
					t.Fatalf("%s: result id %d does not pass the filter", mode, nb.ID)
				}
				if exact := vecmath.L2(q, idx.VectorByID(nb.ID)); nb.Dist != exact {
					t.Fatalf("%s: id %d dist %v != exact %v (rerank missing?)", mode, nb.ID, nb.Dist, exact)
				}
			}
			sum += recallOf(got, bruteRef(idx, q, 10, flt, nil))
		}
		if avg := sum / 30; avg < 0.9 {
			t.Errorf("%s: avg recall %.3f < 0.9", mode, avg)
		}
	}
}

// TestFilteredTombstones: dead ids are treated as non-passing — never
// emitted, holding no pool slot, and the pool refills from live points.
func TestFilteredTombstones(t *testing.T) {
	base := testBase(t, 1200, 24, 9)
	idx := buildQuantTestNSG(t, base)
	flt := makeBits(1200, func(id int32) bool { return id%2 == 0 })
	ctx := NewSearchContext()
	q := testBase(t, 1, 24, 10).Row(0)

	before := idx.SearchFilteredCtx(ctx, q, 10, 64, nil, flt, nil)
	dead := NewTombstones()
	for _, nb := range before[:5] {
		dead.Delete(nb.ID)
	}
	after := idx.SearchFilteredCtx(ctx, q, 10, 64, dead, flt, nil)
	if len(after) != 10 {
		t.Fatalf("got %d results, want 10 (pool should refill past tombstones)", len(after))
	}
	for _, nb := range after {
		if dead.Deleted(nb.ID) {
			t.Fatalf("tombstoned id %d emitted", nb.ID)
		}
		if !bitTest(flt.Bits, nb.ID) {
			t.Fatalf("non-passing id %d emitted", nb.ID)
		}
	}
}

// TestFilteredEmptyAndZero covers the degenerate filters: a zero-count
// filter short-circuits to an empty result, and a short bitmap fails closed
// for ids past its range.
func TestFilteredEmptyAndZero(t *testing.T) {
	base := testBase(t, 600, 16, 11)
	idx := buildQuantTestNSG(t, base)
	ctx := NewSearchContext()
	q := testBase(t, 1, 16, 12).Row(0)

	empty := &Filter{Bits: make([]uint64, (600+63)/64)}
	if got := idx.SearchFilteredCtx(ctx, q, 10, 32, nil, empty, nil); len(got) != 0 {
		t.Fatalf("zero-count filter returned %d results", len(got))
	}

	// Short bitmap: only ids < 64 can pass.
	short := &Filter{Bits: []uint64{^uint64(0)}, Count: 64}
	for _, nb := range idx.SearchFilteredCtx(ctx, q, 10, 32, nil, short, nil) {
		if nb.ID >= 64 {
			t.Fatalf("id %d passed a bitmap covering only [0,64)", nb.ID)
		}
	}

	// Nil filter degrades to the unfiltered search.
	got := idx.SearchFilteredCtx(ctx, q, 10, 32, nil, nil, nil)
	want := idx.Search(q, 10, 32, nil)
	if len(got) != len(want) {
		t.Fatalf("nil filter: %d results, unfiltered %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("nil filter result %d: %v != %v", i, got[i], want[i])
		}
	}
}

// TestLiveFilteredSnapshotDelta: the snapshot path merges only passing,
// live delta rows, and the combined result equals the exact reference over
// (passing snapshot points ∪ passing delta points).
func TestLiveFilteredSnapshotDelta(t *testing.T) {
	base := testBase(t, 900, 16, 13)
	idx := buildQuantTestNSG(t, base)
	snap := idx.Snapshot()
	n := base.Rows

	// Six pending rows with final ids 900..905; even final ids pass.
	dvecs := testBase(t, 6, 16, 14)
	ids := []int32{900, 901, 902, 903, 904, 905}
	seq := []int32{0, 1, 2, 3, 4, 5}
	delta := &Delta{Chunks: []DeltaChunk{{Vecs: dvecs, IDs: ids, Seq: seq, Off: 0}}, Total: 6}

	flt := makeBits(n+6, func(id int32) bool { return id%2 == 0 })
	dead := NewTombstones()
	dead.Delete(904) // a passing delta row that is tombstoned

	q := testBase(t, 1, 16, 15).Row(0)
	ctx := NewSearchContext()
	got := idx.Snapshot().SearchLiveCtx(ctx, q, 10, 64, nil, LiveQuery{Delta: delta, Dead: dead}, flt)

	// Reference: exact over passing snapshot ids plus passing live delta ids.
	var all []vecmath.Neighbor
	for pub := int32(0); int(pub) < n; pub++ {
		if bitTest(flt.Bits, pub) && !dead.Deleted(pub) {
			all = append(all, vecmath.Neighbor{ID: pub, Dist: vecmath.L2(q, snap.Vector(pub))})
		}
	}
	for j, id := range ids {
		if bitTest(flt.Bits, id) && !dead.Deleted(id) {
			all = append(all, vecmath.Neighbor{ID: id, Dist: vecmath.L2(q, dvecs.Row(j))})
		}
	}
	sortNeighbors(all)
	want := all[:10]

	hit := 0
	for _, w := range want {
		for _, g := range got.Neighbors {
			if g.ID == w.ID {
				hit++
				break
			}
		}
		if dead.Deleted(w.ID) {
			t.Fatalf("reference contains dead id %d", w.ID)
		}
	}
	for _, g := range got.Neighbors {
		if g.ID == 904 {
			t.Fatal("tombstoned delta id 904 emitted")
		}
		if !bitTest(flt.Bits, g.ID) {
			t.Fatalf("non-passing id %d emitted", g.ID)
		}
	}
	if float64(hit)/float64(len(want)) < 0.9 {
		t.Errorf("live filtered recall %.2f < 0.9 (%d/%d)", float64(hit)/float64(len(want)), hit, len(want))
	}
}
