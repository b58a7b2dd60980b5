package nsg

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
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

// TestTombstoneOracle interleaves Add, Delete, Compact, filter compiles,
// Save and Search from one seeded script over every serving shape — Index
// heap, relaid SQ8, live with a pending delta, mapped, filtered, and
// ShardedIndex with one and three shards — and checks each answer against
// the float64 brute force over the rows that are live at that moment:
// never a deleted (or filtered-out) id, exact float32 distances, min(k,
// live) results, recall@10 >= 0.97 — and that deletes cost no pool slots,
// i.e. the evaluations per query stay within 1.5x of the same index before
// any delete. A filter passes the tagged rows the index held when it was
// compiled: deletes after it are honored, rows added after it fail. Save
// must refuse with ErrUncompactedDeletes while a delete awaits Compact, and
// Compact's id map renumbers the script's model.
func TestTombstoneOracle(t *testing.T) {
	const n0, extra, k, l, ops = 1500, 120, 10, 60, 700
	ds := shardedTestData(t, n0+extra, 40)
	dim := ds.Base.Dim
	opts := DefaultOptions()
	opts.ExactKNN = true
	opts.Seed = 11
	build := func(t *testing.T, q QuantMode) *Index {
		t.Helper()
		o := opts
		o.Quantize = q
		idx, err := BuildFromFlat(ds.Base.Data[:n0*dim], dim, o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(idx.Close)
		return idx
	}
	// pending holds every Add in the delta until a Flush or Compact.
	pending := LiveOptions{MaxPending: 1 << 20, PublishInterval: time.Hour}
	sharded := func(t *testing.T, shards int) *Index {
		t.Helper()
		idx, err := BuildShardedFromFlat(ds.Base.Data[:n0*dim], dim, ShardedOptions{Shards: shards, Shard: opts})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(idx.Close)
		attachTestMetadata(t, idx.SetMetadata, n0)
		if err := idx.EnableLiveUpdates(pending); err != nil {
			t.Fatal(err)
		}
		return idx
	}
	even := func(id int32) bool { return id%2 == 0 }

	for _, c := range []struct {
		name    string
		open    func(t *testing.T) *Index
		mutable bool                // the shape accepts Add and Compact
		holds   bool                // Adds stay pending until Flush or Compact
		pass    func(id int32) bool // the predicate's truth on the first n0 rows, nil = unfiltered
	}{
		{"heap-float32", func(t *testing.T) *Index { return build(t, QuantNone) }, true, false, nil},
		{"heap-sq8-relaid", func(t *testing.T) *Index { return build(t, QuantSQ8) }, true, false, nil},
		{"live-pending-delta", func(t *testing.T) *Index {
			idx := build(t, QuantNone)
			if err := idx.EnableLiveUpdates(pending); err != nil {
				t.Fatal(err)
			}
			return idx
		}, true, true, nil},
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
		}, false, false, nil},
		{"filter-and-tombstones", func(t *testing.T) *Index {
			idx := build(t, QuantNone)
			attachTestMetadata(t, idx.SetMetadata, n0)
			return idx
		}, true, false, even},
		{"sharded-1", func(t *testing.T) *Index { return sharded(t, 1) }, true, true, even},
		{"sharded-3", func(t *testing.T) *Index { return sharded(t, 3) }, true, true, even},
	} {
		t.Run(c.name, func(t *testing.T) {
			idx := c.open(t)
			// The script's model: rows and tags by current id, tombstones,
			// and the id count the current filter was compiled over.
			rows := make([][]float32, n0, n0+extra)
			tagged := make([]bool, n0, n0+extra)
			for i := range rows {
				rows[i], tagged[i] = ds.Base.Row(i), c.pass != nil && c.pass(int32(i))
			}
			dead := map[int32]bool{}
			var flt *Filter
			covered := 0
			compile := func(op int) {
				if c.pass == nil {
					return
				}
				var err error
				if flt, err = idx.CompileFilter(HasTag("tags", "even")); err != nil {
					t.Fatalf("op %d: CompileFilter: %v", op, err)
				}
				covered = len(rows)
			}
			compile(-1)
			live := func(id int32) bool {
				return !dead[id] && (c.pass == nil || (int(id) < covered && tagged[id]))
			}

			var cleanEvals uint64
			for qi := 0; qi < ds.Queries.Rows; qi++ {
				_, _, st := filteredStats(idx, ds.Queries.Row(qi), k, l, flt)
				cleanEvals += st.DistanceComputations
			}
			cleanMean := float64(cleanEvals) / float64(ds.Queries.Rows)

			rng := rand.New(rand.NewSource(42))
			var searches, hits, wanted, deletes, compacts int
			var evals uint64
			var lastTop []int32
			next := n0 // the next base row an Add inserts
			// Rows from pendingFrom on wait in the delta, whose scan is
			// exact: each one in the true top k must be answered.
			pendingFrom := math.MaxInt
			drained := func() {
				if c.holds {
					pendingFrom = len(rows)
				}
			}
			drained()
			recent := func() int32 { return int32(len(rows) - 1 - rng.Intn(min(len(rows), 20))) }
			for op := 0; op < ops; op++ {
				if op == ops/2 {
					idx.Flush() // live shapes: the first half's Adds move from the delta into the graph
					drained()
				}
				switch r := rng.Intn(100); {
				case c.mutable && (op == ops/3 || op == 2*ops/3):
					remap, err := idx.Compact()
					if err != nil {
						t.Fatalf("op %d: Compact: %v", op, err)
					}
					if len(remap) != len(rows) {
						t.Fatalf("op %d: Compact remapped %d ids, the index held %d", op, len(remap), len(rows))
					}
					keptRows, keptTags := rows[:0:0], tagged[:0:0]
					for old, id := range remap {
						if dead[int32(old)] != (id < 0) || (id >= 0 && int(id) != len(keptRows)) {
							t.Fatalf("op %d: Compact sent id %d (deleted %v) to %d", op, old, dead[int32(old)], id)
						}
						if id >= 0 {
							keptRows, keptTags = append(keptRows, rows[old]), append(keptTags, tagged[old])
						}
					}
					rows, tagged, dead, lastTop = keptRows, keptTags, map[int32]bool{}, nil
					compacts++
					drained()
					compile(op) // the old filter's ids are gone
				case r < 8 && c.mutable && next < n0+extra:
					vec := ds.Base.Row(next)
					var id int32
					var err error
					if c.pass != nil {
						id, err = idx.AddWithMetadata(vec, map[string]any{"tags": []string{"even"}})
					} else {
						id, err = idx.Add(vec)
					}
					if err != nil {
						t.Fatalf("op %d: Add: %v", op, err)
					}
					if int(id) != len(rows) {
						t.Fatalf("op %d: Add returned id %d, want %d", op, id, len(rows))
					}
					rows, tagged = append(rows, vec), append(tagged, c.pass != nil)
					next++
				case r < 25:
					// Half the deletes hit a recent answer, so tombstones pile
					// up exactly where later queries look, and some a recent
					// Add, which on the live shapes is still pending.
					id := int32(rng.Intn(len(rows)))
					if len(lastTop) > 0 && rng.Intn(2) == 0 {
						id = lastTop[rng.Intn(len(lastTop))]
					} else if rng.Intn(3) == 0 {
						id = recent()
					}
					err := idx.Delete(id)
					if dead[id] != (err != nil) {
						t.Fatalf("op %d: Delete(%d) = %v with deleted = %v", op, id, err, dead[id])
					}
					dead[id] = true
					deletes++
				case r < 28:
					compile(op)
				case r < 30:
					err := idx.Save(filepath.Join(t.TempDir(), "save"))
					if want := len(dead) > 0; errors.Is(err, ErrUncompactedDeletes) != want || (!want && err != nil) {
						t.Fatalf("op %d: Save with %d uncompacted deletes = %v", op, len(dead), err)
					}
				default:
					q := ds.Queries.Row(rng.Intn(ds.Queries.Rows))
					if rng.Intn(4) == 0 {
						q = rows[recent()] // its row answers at distance 0 unless deleted or filtered out
					}
					ids, dists, st := filteredStats(idx, q, k, l, flt)
					want := oracleTopK(rows, q, k, live)
					if len(ids) != len(want) {
						t.Fatalf("op %d: %d results, want min(k, live) = %d", op, len(ids), len(want))
					}
					for _, id := range want {
						if int(id) >= pendingFrom && !slices.Contains(ids, id) {
							t.Fatalf("op %d: pending row %d is among the %d nearest but missing from %v", op, id, k, ids)
						}
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
					evals += st.DistanceComputations
					searches++
					lastTop = ids
				}
			}
			if deletes < ops/20 {
				t.Fatalf("script deleted only %d ids", deletes)
			}
			recall, mean := float64(hits)/float64(wanted), float64(evals)/float64(searches)
			t.Logf("%d searches, %d rows, %d deletes, %d compactions: recall@%d %.4f, %.0f evaluations per query (%.0f before any delete)",
				searches, len(rows), deletes, compacts, k, recall, mean, cleanMean)
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
