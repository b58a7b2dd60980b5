package core

import (
	"fmt"
	"slices"
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
		all = append(all, vecmath.Neighbor{ID: pub, Dist: vecmath.L2(q, x.Base.Row(int(x.toInternal[pub])))})
	}
	vecmath.SortNeighbors(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
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
// brute-force-with-filter reference at 50% and 10% of 1200 points, on both a
// plain and a relaid index. At this size the planner scans both (the 50%
// floor is slack); TestPlanCrossover and the root package's
// TestFilteredPlanParity cover the walk.
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
		wantExact bool // must equal the reference exactly
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
				got := idx.Query(ctx, q, Query{K: k, L: l, Filter: tc.flt}).Neighbors
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

// TestFilteredQuantParity runs the same gate through the SQ8 two-phase
// path: results pass the filter, distances are exact float32, recall stays
// near the reference.
func TestFilteredQuantParity(t *testing.T) {
	base := testBase(t, 1200, 24, 5)
	idx := buildQuantTestNSG(t, base.Clone())
	if err := idx.EnableQuantization(nil); err != nil {
		t.Fatal(err)
	}
	flt := makeBits(1200, func(id int32) bool { return id%2 == 0 })
	queries := testBase(t, 30, 24, 6)
	ctx := NewSearchContext()
	sum := 0.0
	for qi := 0; qi < queries.Rows; qi++ {
		q := queries.Row(qi)
		got := idx.Query(ctx, q, Query{K: 10, L: 64, Filter: flt}).Neighbors
		for _, nb := range got {
			if !bitTest(flt.Bits, nb.ID) {
				t.Fatalf("result id %d does not pass the filter", nb.ID)
			}
			if exact := vecmath.L2(q, idx.Base.Row(int(idx.toInternal[nb.ID]))); nb.Dist != exact {
				t.Fatalf("id %d dist %v != exact %v (rerank missing?)", nb.ID, nb.Dist, exact)
			}
		}
		sum += recallOf(got, bruteRef(idx, q, 10, flt, nil))
	}
	if avg := sum / 30; avg < 0.9 {
		t.Errorf("avg recall %.3f < 0.9", avg)
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

	before := idx.Query(ctx, q, Query{K: 10, L: 64, Filter: flt}).Neighbors
	dead := NewTombstones()
	for _, nb := range before[:5] {
		dead.Delete(nb.ID)
	}
	after := idx.Query(ctx, q, Query{K: 10, L: 64, Dead: dead, Filter: flt}).Neighbors
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
	if got := idx.Query(ctx, q, Query{K: 10, L: 32, Filter: empty}).Neighbors; len(got) != 0 {
		t.Fatalf("zero-count filter returned %d results", len(got))
	}

	// Short bitmap: only ids < 64 can pass.
	short := &Filter{Bits: []uint64{^uint64(0)}, Count: 64}
	for _, nb := range idx.Query(ctx, q, Query{K: 10, L: 32, Filter: short}).Neighbors {
		if nb.ID >= 64 {
			t.Fatalf("id %d passed a bitmap covering only [0,64)", nb.ID)
		}
	}

	// Nil filter degrades to the unfiltered search.
	got := idx.Query(ctx, q, Query{K: 10, L: 32}).Neighbors
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
	delta := &Delta{Vecs: dvecs, IDs: ids, Seq: seq}

	flt := makeBits(n+6, func(id int32) bool { return id%2 == 0 })
	dead := NewTombstones()
	dead.Delete(904) // a passing delta row that is tombstoned

	q := testBase(t, 1, 16, 15).Row(0)
	ctx := NewSearchContext()
	got := idx.Snapshot().Query(ctx, q, Query{K: 10, L: 64, Dead: dead, Filter: flt, Delta: delta})

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
	vecmath.SortNeighbors(all)
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

// TestPlanFiltered pins the planner's shape: the scan below the crossover
// and the walk above it, a crossover that grows with l and n and shrinks
// the live passing set by the tombstoned fraction, and a navigation pool
// that holds the ball's non-passing rows and never fewer than l.
func TestPlanFiltered(t *testing.T) {
	const n, l, deg = 8000, 60, 30
	cross := 0 // the largest passing count still scanned
	for count := 1; count <= n; count++ {
		scan, lnav := planFiltered(n, l, deg, count, 0)
		if scan {
			if cross != count-1 {
				t.Fatalf("count %d scans but %d walks: the plan must flip once", count, count-1)
			}
			cross = count
			continue
		}
		if want := max(l, l*n/count-l); lnav != want {
			t.Fatalf("count %d: navigation pool %d, want %d", count, lnav, want)
		}
	}
	if cross < n/8 || cross >= n/2 {
		t.Fatalf("crossover at %d of %d rows: expected between 1/8 and 1/2 (ARCHITECTURE.md, Filtered plan)", cross, n)
	}
	if scan, _ := planFiltered(n, 2*l, deg, cross+1, 0); !scan {
		t.Error("a larger pool must move the crossover up")
	}
	if scan, _ := planFiltered(4*n, l, deg, cross+1, 0); !scan {
		t.Error("a larger index must move the crossover up")
	}
	if scan, _ := planFiltered(n, l, deg, cross+1, n/2); !scan {
		t.Error("tombstones shrink the live passing set, so the same count must scan")
	}
	for _, tc := range [][5]int{{0, l, deg, 1, 0}, {1, l, deg, 1, 0}, {n, l, deg, n, n}, {n, l, deg, 2 * n, 0}, {n, l, 0, 1, 0}} {
		if _, lnav := planFiltered(tc[0], tc[1], tc[2], tc[3], tc[4]); lnav < 0 {
			t.Errorf("planFiltered%v: navigation pool %d", tc, lnav)
		}
	}
}

// TestPlanCrossover searches one bitmap with the passing count it has and
// with counts just either side of the planner's crossover, so the same
// query is answered once by the scan and once by the walk: the two must
// return the same top k, on a plain and a relaid index, with and without
// tombstones.
func TestPlanCrossover(t *testing.T) {
	const n, k, l = 3000, 10, 100
	// Eight dimensions: low enough that the walk at l = 100 is exact on
	// every query, so "the same top k" is a fair demand of it.
	base := testBase(t, n, 8, 21)
	queries := testBase(t, 20, 8, 22)
	plain := buildQuantTestNSG(t, base.Clone())
	relay := buildQuantTestNSG(t, base.Clone())
	relay.Relayout()
	dead := NewTombstones()
	for id := int32(5); id < n; id += 9 {
		dead.Delete(id)
	}
	for _, idx := range []*NSG{plain, relay} {
		for _, dd := range []*Tombstones{nil, dead} {
			deg := idx.FlatView().MaxDegree()
			cross := 0
			for count := 1; count <= n; count++ {
				if scan, _ := planFiltered(n, l, deg, count, dd.Len()); !scan {
					break
				}
				cross = count
			}
			// A bitmap with about cross passing rows, spread over the ids.
			flt := makeBits(n, func(id int32) bool { return int(id)*7919%n < cross })
			ctx := NewSearchContext()
			for qi := 0; qi < queries.Rows; qi++ {
				q := queries.Row(qi)
				below, above := *flt, *flt
				below.Count, above.Count = cross, cross+1
				scanned := idx.Query(ctx, q, Query{K: k, L: l, Dead: dd, Filter: &below})
				if scanned.Hops != 0 {
					t.Fatalf("count %d should scan", cross)
				}
				want := append([]vecmath.Neighbor(nil), scanned.Neighbors...)
				if ref := bruteRef(idx, q, k, flt, dd); !slices.Equal(want, ref) {
					t.Fatalf("q%d: scan %v, brute force %v", qi, want, ref)
				}
				walked := idx.Query(ctx, q, Query{K: k, L: l, Dead: dd, Filter: &above})
				if walked.Hops == 0 {
					t.Fatalf("count %d should walk", cross+1)
				}
				if !slices.Equal(walked.Neighbors, want) {
					t.Fatalf("q%d: either side of the crossover (%d rows) the top %d differ:\nscan %v\nwalk %v", qi, cross, k, want, walked.Neighbors)
				}
			}
		}
	}
}

// TestPassingRows holds the word-at-a-time set-bit walk to the per-row loop
// it replaced — ask node about every row — on ragged tails, bitmaps longer
// and shorter than the rows, bits set past the last row, a relaid id space,
// tombstones, and every row dead.
func TestPassingRows(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 8000} {
		// A permutation and its inverse stand in for a relayout.
		pubIDs, toInt := make([]int32, n), make([]int32, n)
		for i := range pubIDs {
			pubIDs[i] = int32((i*7919 + 3) % n)
		}
		if n%7919 == 0 {
			t.Fatal("7919 must be coprime to n")
		}
		for internal, pub := range pubIDs {
			toInt[pub] = int32(internal)
		}
		someDead, allDead := NewTombstones(), NewTombstones()
		for id := 0; id < n; id++ {
			if id%5 == 1 {
				someDead.Delete(int32(id))
			}
			allDead.Delete(int32(id))
		}
		words := (n + 63) / 64
		ones := func(w int) []uint64 {
			b := make([]uint64, w)
			for i := range b {
				b[i] = ^uint64(0)
			}
			return b
		}
		bitmaps := map[string][]uint64{
			"every third":     makeBits(n, func(id int32) bool { return id%3 == 0 }).Bits,
			"all, and beyond": ones(words + 2), // bits set past the last row
			"short":           ones(words - 1), // ids past it fail closed
			"empty":           make([]uint64, words),
		}
		for name, bits := range bitmaps {
			for _, dead := range []*Tombstones{nil, someDead, allDead} {
				for _, relaid := range []bool{false, true} {
					pf := passFilter{bits: bits, dead: dead, pubIDs: identity(n)}
					ti := identity(n)
					if relaid {
						pf.pubIDs, ti = pubIDs, toInt
					}
					got := pf.rows(nil, n, ti)
					var want []int32
					for pub := int32(0); int(pub) < n; pub++ { // public-id order
						internal := pub
						if relaid {
							internal = toInt[pub]
						}
						if pf.node(internal, 0) {
							want = append(want, internal)
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("n=%d %s dead=%d relaid=%v: %d rows, the per-row loop finds %d", n, name, dead.Len(), relaid, len(got), len(want))
					}
					if dead == allDead && len(got) != 0 {
						t.Fatalf("n=%d %s: %d rows survive every row being dead", n, name, len(got))
					}
				}
			}
		}
	}
}

// BenchmarkFilteredScan times both plans on the same 8 000-row index at the
// repository benchmark's three passing-set sizes (0.5%, 10%, 50%), plain
// and relaid: the scan's cost should follow the passing set, the walk's the
// ball around it. It is the re-runnable form of the sweep the planner's
// constants were read from (ARCHITECTURE.md, Filtered plan).
func BenchmarkFilteredScan(b *testing.B) {
	const n, k, l = 8000, 10, 60
	base := testBase(b, n, 32, 31)
	queries := testBase(b, 64, 32, 32)
	plain := buildQuantTestNSG(b, base.Clone())
	relay := buildQuantTestNSG(b, base.Clone())
	relay.Relayout()
	for _, pass := range []int{40, 800, 4000} {
		flt := makeBits(n, func(id int32) bool { return int(id)*7919%n < pass })
		for _, layout := range []struct {
			name string
			idx  *NSG
		}{{"plain", plain}, {"relaid", relay}} {
			v := layout.idx.view()
			pf := passFilter{bits: flt.Bits, pubIDs: v.pubIDs}
			ctx := NewSearchContext()
			b.Run(fmt.Sprintf("scan/pass=%d/%s", pass, layout.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					scanFiltered(ctx, &v, queries.Row(i%queries.Rows), k, nil, nil, pf)
				}
			})
			b.Run(fmt.Sprintf("walk/pass=%d/%s", pass, layout.name), func(b *testing.B) {
				b.ReportAllocs()
				lnav := max(l, l*n/pass-l)
				for i := 0; i < b.N; i++ {
					searchView(ctx, &v, queries.Row(i%queries.Rows), Query{K: k, L: l}, lnav, pf)
				}
			})
		}
	}
}
