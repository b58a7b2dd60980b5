package nsg

import (
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/vecmath"
)

// oracleTopK is the float64 brute-force reference: the k nearest ids to q
// among the rows live admits, ties by id.
func oracleTopK(rows [][]float32, q []float32, k int, live func(id int32) bool) []int32 {
	type cand struct {
		id int32
		d  float64
	}
	var cs []cand
	for i, v := range rows {
		if !live(int32(i)) {
			continue
		}
		d := 0.0
		for j := range v {
			diff := float64(v[j]) - float64(q[j])
			d += diff * diff
		}
		cs = append(cs, cand{int32(i), d})
	}
	sort.Slice(cs, func(a, b int) bool { return cs[a].d < cs[b].d || (cs[a].d == cs[b].d && cs[a].id < cs[b].id) })
	if len(cs) > k {
		cs = cs[:k]
	}
	out := make([]int32, len(cs))
	for i, c := range cs {
		out[i] = c.id
	}
	return out
}

// countedSearch is the search every public entry point runs, with a
// distance counter threaded through it.
func countedSearch(x *Index, q []float32, k, l int, f *Filter) (ids []int32, dists []float32, hops int, evals uint64) {
	var counter vecmath.Counter
	ctx := x.getCtx()
	res := x.searchCtx(ctx, q, k, l, f, &counter)
	ids, dists = extractResults(res.Neighbors)
	x.putCtx(ctx)
	return ids, dists, res.Hops, counter.Count()
}

// TestTombstoneOracle interleaves Add, Delete and Search from one seeded
// script over every serving shape and checks each answer against the
// float64 brute force over the rows that are live at that moment: never a
// deleted (or filtered-out) id, exact float32 distances, min(k, live)
// results, recall@10 >= 0.97 — and that deletes cost no pool slots, i.e. the
// evaluations per query stay within 1.5x of the same index before any
// delete.
func TestTombstoneOracle(t *testing.T) {
	const n0, extra, k, l, ops = 1500, 120, 10, 60, 700
	ds := shardedTestData(t, n0+extra, 40)
	dim := ds.Base.Dim
	build := func(t *testing.T, q QuantMode) *Index {
		t.Helper()
		opts := DefaultOptions()
		opts.ExactKNN = true
		opts.Seed = 11
		opts.Quantize = q
		idx, err := BuildFromFlat(append([]float32(nil), ds.Base.Data[:n0*dim]...), dim, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(idx.Close)
		return idx
	}
	even := func(id int32) bool { return id%2 == 0 }

	for _, c := range []struct {
		name string
		open func(t *testing.T) *Index
		adds bool                // the shape accepts Add
		pass func(id int32) bool // the predicate's truth, nil = unfiltered
	}{
		{"heap-float32", func(t *testing.T) *Index { return build(t, QuantNone) }, true, nil},
		{"heap-sq8-relaid", func(t *testing.T) *Index { return build(t, QuantSQ8) }, true, nil},
		{"live-pending-delta", func(t *testing.T) *Index {
			idx := build(t, QuantNone)
			// Nothing drains on its own: every Add stays in the scanned delta
			// until the script's one Flush.
			if err := idx.EnableLiveUpdates(LiveOptions{MaxPending: 1 << 20, PublishInterval: time.Hour, ChunkRows: 16}); err != nil {
				t.Fatal(err)
			}
			return idx
		}, true, nil},
		{"mapped", func(t *testing.T) *Index {
			path := filepath.Join(t.TempDir(), "idx.nsgm")
			if err := build(t, QuantNone).SaveMapped(path); err != nil {
				t.Fatal(err)
			}
			idx, err := OpenMapped(path, MapOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(idx.Close)
			return idx
		}, false, nil},
		{"filter-and-tombstones", func(t *testing.T) *Index {
			idx := build(t, QuantNone)
			attachTestMetadata(t, idx.SetMetadata, n0)
			return idx
		}, false, even},
	} {
		t.Run(c.name, func(t *testing.T) {
			idx := c.open(t)
			var flt *Filter
			if c.pass != nil {
				var err error
				if flt, err = idx.CompileFilter(HasTag("tags", "even")); err != nil {
					t.Fatal(err)
				}
			}
			rows := make([][]float32, n0, n0+extra)
			for i := range rows {
				rows[i] = ds.Base.Row(i)
			}
			dead := map[int32]bool{}
			live := func(id int32) bool { return !dead[id] && (c.pass == nil || c.pass(id)) }

			var cleanEvals uint64
			for qi := 0; qi < ds.Queries.Rows; qi++ {
				_, _, _, ev := countedSearch(idx, ds.Queries.Row(qi), k, l, flt)
				cleanEvals += ev
			}
			cleanMean := float64(cleanEvals) / float64(ds.Queries.Rows)

			rng := rand.New(rand.NewSource(42))
			var searches, hits, wanted int
			var evals uint64
			var lastTop []int32
			for op := 0; op < ops; op++ {
				if op == ops/2 {
					idx.Flush() // live: the first half's Adds move from the delta into the graph
				}
				switch r := rng.Intn(100); {
				case r < 8 && c.adds && len(rows) < n0+extra:
					vec := ds.Base.Row(len(rows))
					id, err := idx.Add(vec)
					if err != nil {
						t.Fatalf("op %d: Add: %v", op, err)
					}
					if int(id) != len(rows) {
						t.Fatalf("op %d: Add returned id %d, want %d", op, id, len(rows))
					}
					rows = append(rows, vec)
				case r < 25:
					// Half the deletes hit a recent answer, so tombstones pile
					// up exactly where later queries look.
					id := int32(rng.Intn(len(rows)))
					if len(lastTop) > 0 && rng.Intn(2) == 0 {
						id = lastTop[rng.Intn(len(lastTop))]
					}
					err := idx.Delete(id)
					if dead[id] != (err != nil) {
						t.Fatalf("op %d: Delete(%d) = %v with deleted = %v", op, id, err, dead[id])
					}
					dead[id] = true
				default:
					q := ds.Queries.Row(rng.Intn(ds.Queries.Rows))
					ids, dists, _, ev := countedSearch(idx, q, k, l, flt)
					want := oracleTopK(rows, q, k, live)
					if len(ids) != len(want) {
						t.Fatalf("op %d: %d results, want min(k, live) = %d", op, len(ids), len(want))
					}
					for i, id := range ids {
						if !live(id) {
							t.Fatalf("op %d: result %d is id %d, which is deleted or filtered out", op, i, id)
						}
						if exact := vecmath.L2(q, rows[id]); dists[i] != exact {
							t.Fatalf("op %d: id %d at distance %v, exact float32 is %v", op, id, dists[i], exact)
						}
					}
					hits += int(recallAgainst(ids, want)*float64(len(want)) + 0.5)
					wanted += len(want)
					evals += ev
					searches++
					lastTop = ids
				}
			}
			if len(dead) < ops/20 {
				t.Fatalf("script deleted only %d ids", len(dead))
			}
			recall, mean := float64(hits)/float64(wanted), float64(evals)/float64(searches)
			t.Logf("%d searches, %d rows, %d tombstones: recall@%d %.4f, %.0f evaluations per query (%.0f before any delete)",
				searches, len(rows), len(dead), k, recall, mean, cleanMean)
			if recall < 0.97 {
				t.Errorf("recall@%d = %.4f, want >= 0.97", k, recall)
			}
			if mean > 1.5*cleanMean {
				t.Errorf("%.0f evaluations per query against %.0f before any delete: the pool grew with the dead count", mean, cleanMean)
			}
		})
	}
}

// TestDeletedNeighbourhoodStillAnswers is the clustered-delete case: every
// one of a query's 200 nearest neighbours is deleted (far more than L), so
// the walk must cross a wholly dead region on navigation-pool candidates
// alone and still fill k slots from the survivors behind it.
func TestDeletedNeighbourhoodStillAnswers(t *testing.T) {
	const n, k, l = 2000, 10, 60
	ds := shardedTestData(t, n, 5)
	idx := buildMappedPublicIndex(t, ds, QuantNone)
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = ds.Base.Row(i)
	}
	notDeleted := func(id int32) bool { return !idx.Deleted(id) }
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		q := ds.Queries.Row(qi)
		for _, id := range oracleTopK(rows, q, 200, notDeleted) {
			if err := idx.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		ids, _ := idx.SearchWithPool(q, k, l)
		if len(ids) != k {
			t.Fatalf("query %d: %d results behind 200 deleted neighbours, want %d", qi, len(ids), k)
		}
		if r := recallAgainst(ids, oracleTopK(rows, q, k, notDeleted)); r < 0.9 {
			t.Errorf("query %d: recall %.2f against the survivors, want >= 0.9", qi, r)
		}
		for _, id := range ids {
			if idx.Deleted(id) {
				t.Fatalf("query %d returned deleted id %d", qi, id)
			}
		}
	}
}
