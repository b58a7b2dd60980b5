package nsg

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
)

// planShape is one serving shape of the plan parity table: how to search it
// under a predicate (reporting the walk's expansions, 0 when the exact scan
// answered) and which vector, if any, is live under an id.
type planShape struct {
	name   string
	search func(q []float32, k, l int, p Predicate) (ids []int32, dists []float32, hops int)
	vec    func(id int) []float32 // nil: no such id, or deleted
	ids    int                    // size of the id space
}

// planSel spreads a selectivity key over ids: sel(i) takes every value in
// [0, 1000) equally often, so Range("sel", 0, 10s-1) passes s% of any run
// of rows, uncorrelated with where the rows lie.
func planSel(id int) int64 { return int64(id * 7919 % 1000) }

func planMetadata(n int) *Metadata {
	sel := make([]int64, n)
	for i := range sel {
		sel[i] = planSel(i)
	}
	m := NewMetadata(n)
	if err := m.AddInt64("sel", sel); err != nil {
		panic(err)
	}
	return m
}

// indexShape wraps an Index (heap, mapped or live).
func indexShape(name string, idx *Index, vecs [][]float32) planShape {
	ctx := core.NewSearchContext()
	return planShape{
		name: name,
		ids:  len(vecs),
		search: func(q []float32, k, l int, p Predicate) ([]int32, []float32, int) {
			f, err := idx.CompileFilter(p)
			if err != nil {
				panic(err)
			}
			res := idx.searchCtx(ctx, q, k, l, f, nil)
			ids, dists := extractResults(res.Neighbors)
			return ids, dists, res.Hops
		},
		vec: func(id int) []float32 {
			if idx.Deleted(int32(id)) {
				return nil
			}
			return vecs[id]
		},
	}
}

func shardedShape(name string, idx *ShardedIndex, vecs [][]float32) planShape {
	return planShape{
		name: name,
		ids:  len(vecs),
		search: func(q []float32, k, l int, p Predicate) ([]int32, []float32, int) {
			f, err := idx.CompileFilter(p)
			if err != nil {
				panic(err)
			}
			ids, dists, st := idx.SearchFilteredWithStats(q, k, l, f)
			return ids, dists, st.Hops
		},
		vec: func(id int) []float32 { return vecs[id] },
	}
}

// TestFilteredPlanParity runs every serving shape at selectivities on both
// sides of the planner's crossover. Wherever the exact scan answered (no
// expansions), the result must be the float64 brute force over the passing
// live set, distance bits included (the vectors are integer-valued, so
// float32 and float64 sums agree exactly); wherever the walk answered, mean
// recall@10 must stay within 0.01 of it.
func TestFilteredPlanParity(t *testing.T) {
	const n, extra, k, l = 4000, 40, 10, 60
	ds := shardedTestData(t, n+extra, 16)
	vecs := make([][]float32, n+extra)
	for i := range vecs {
		vecs[i] = ds.Base.Row(i)
	}
	build := func(mode QuantMode) *Index {
		opts := DefaultOptions()
		opts.Quantize = mode
		idx, err := Build(vecs[:n], opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.SetMetadata(planMetadata(n)); err != nil {
			t.Fatal(err)
		}
		return idx
	}
	var walked, scanned int
	run := func(s planShape) {
		t.Run(s.name, func(t *testing.T) {
			for _, pct := range []float64{0.5, 2, 5, 10, 25, 50, 100} {
				pred := Range("sel", 0, int64(pct*10)-1)
				pass := func(id int) bool { return planSel(id) < int64(pct*10) }
				recall, walks := 0.0, 0
				for qi := 0; qi < ds.Queries.Rows; qi++ {
					q := ds.Queries.Row(qi)
					ids, dists, hops := s.search(q, k, l, pred)
					want := exactFiltered(s, q, k, pass)
					if hops == 0 {
						scanned++
						checkExact(t, s, fmt.Sprintf("%g%% q%d", pct, qi), q, ids, dists, want, pass)
						continue
					}
					walks++
					for _, id := range ids {
						if !pass(int(id)) || s.vec(int(id)) == nil {
							t.Fatalf("%g%% q%d: id %d does not pass or is not live", pct, qi, id)
						}
					}
					recall += recallOfDists(dists, want)
				}
				walked += walks
				if walks > 0 && recall/float64(walks) < 0.99 {
					t.Errorf("%g%%: the walk's recall@%d %.4f is more than 0.01 under the exact answer", pct, k, recall/float64(walks))
				}
			}
			// k past the passing set: every live passing row, no more.
			pass := func(id int) bool { return planSel(id) < 5 }
			q := ds.Queries.Row(0)
			ids, dists, _ := s.search(q, 3*k, l, Range("sel", 0, 4))
			checkExact(t, s, "k > Count", q, ids, dists, exactFiltered(s, q, 3*k, pass), pass)
			// Nothing passes: an empty answer.
			if ids, _, _ := s.search(q, k, l, Range("sel", 5000, 6000)); len(ids) != 0 {
				t.Errorf("empty predicate returned %d results", len(ids))
			}
		})
	}

	heap := build(QuantNone)
	run(indexShape("float32 heap", heap, vecs[:n]))
	for id := 0; id < n; id += 7 {
		if err := heap.Delete(int32(id)); err != nil {
			t.Fatal(err)
		}
	}
	run(indexShape("tombstones", heap, vecs[:n]))
	// Live, still carrying the tombstones, with rows that stay pending: the
	// maintainer is told not to publish during the test.
	if err := heap.EnableLiveUpdates(LiveOptions{PublishInterval: time.Hour, MaxPending: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	defer heap.Close()
	for i := n; i < n+extra; i++ {
		if _, err := heap.AddWithMetadata(vecs[i], map[string]any{"sel": planSel(i)}); err != nil {
			t.Fatal(err)
		}
	}
	run(indexShape("live with a pending delta", heap, vecs))

	sq8 := build(QuantSQ8)
	run(indexShape("SQ8 relaid", sq8, vecs[:n]))
	path := filepath.Join(t.TempDir(), "plan.nsgm")
	if err := sq8.SaveMapped(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMapped(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	run(indexShape("OpenMapped", mapped, vecs[:n]))

	sharded, err := BuildSharded(vecs[:n], DefaultShardedOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	if err := sharded.SetMetadata(planMetadata(n)); err != nil {
		t.Fatal(err)
	}
	run(shardedShape("2-shard", sharded, vecs[:n]))
	// Live shards read the global bitmap through their id tables: the remap
	// path, the one place the scan still asks about every row.
	if err := sharded.EnableLiveUpdates(LiveOptions{PublishInterval: time.Hour, MaxPending: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	for i := n; i < n+extra; i++ {
		id, err := sharded.Add(vecs[i])
		if err != nil || int(id) != i {
			t.Fatalf("Add: id %d err %v, want id %d", id, err, i)
		}
		if err := sharded.Metadata().AppendRow(map[string]any{"sel": planSel(i)}); err != nil {
			t.Fatal(err)
		}
	}
	run(shardedShape("2-shard live (remap)", sharded, vecs))

	if walked == 0 || scanned == 0 {
		t.Fatalf("the table must cross the planner's crossover: %d walks, %d scans", walked, scanned)
	}
}

// exactFiltered is the reference: float64 distances over the live passing
// ids, the k nearest in (distance, id) order.
func exactFiltered(s planShape, q []float32, k int, pass func(int) bool) []float64 {
	var all []float64
	for id := 0; id < s.ids; id++ {
		if v := s.vec(id); v != nil && pass(id) {
			all = append(all, dist64(q, v))
		}
	}
	sort.Float64s(all)
	return all[:min(k, len(all))]
}

func dist64(a, b []float32) float64 {
	var d float64
	for j := range a {
		diff := float64(a[j]) - float64(b[j])
		d += diff * diff
	}
	return d
}

// checkExact requires got to be the exact answer: the reference's distances
// rank for rank, bit for bit, each under an id that passes, is live, is not
// repeated and really lies at that distance — which pins the ids too, up to
// the order of exact ties.
func checkExact(t *testing.T, s planShape, what string, q []float32, ids []int32, dists []float32, want []float64, pass func(int) bool) {
	t.Helper()
	if len(ids) != len(want) {
		t.Fatalf("%s %s: %d results, exact answer has %d", s.name, what, len(ids), len(want))
	}
	seen := make(map[int32]bool, len(ids))
	for i, id := range ids {
		v := s.vec(int(id))
		if v == nil || !pass(int(id)) || seen[id] {
			t.Fatalf("%s %s: result %d (id %d) is dead, filtered out or repeated", s.name, what, i, id)
		}
		seen[id] = true
		if math.Float32bits(dists[i]) != math.Float32bits(float32(want[i])) || dist64(q, v) != want[i] {
			t.Fatalf("%s %s: result %d is id %d at %v (really %v), exact answer has %v", s.name, what, i, id, dists[i], dist64(q, v), want[i])
		}
	}
}

// recallOfDists scores a result against the exact distances: the fraction
// of the reference a result covers, counting by distance so exact ties do
// not depend on which of two equidistant ids was kept.
func recallOfDists(got []float32, want []float64) float64 {
	if len(want) == 0 {
		return 1
	}
	hit, j := 0, 0
	for _, w := range want {
		for j < len(got) && float64(got[j]) < w {
			j++
		}
		if j < len(got) && float64(got[j]) == w {
			hit++
			j++
		}
	}
	return float64(hit) / float64(len(want))
}

// TestFilteredStaleBitmapFailsClosed: a filter compiled before rows were
// added is shorter than the index, and the new rows fail it on both plans.
func TestFilteredStaleBitmapFailsClosed(t *testing.T) {
	const n, k = 640, 10
	ds := shardedTestData(t, n+64, 4)
	vecs := make([][]float32, n+64)
	for i := range vecs {
		vecs[i] = ds.Base.Row(i)
	}
	idx, err := Build(vecs[:n], DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.SetMetadata(planMetadata(n)); err != nil {
		t.Fatal(err)
	}
	few, err := idx.CompileFilter(Range("sel", 0, 49))
	if err != nil {
		t.Fatal(err)
	}
	all, err := idx.CompileFilter(Range("sel", 0, 999))
	if err != nil {
		t.Fatal(err)
	}
	for i := n; i < n+64; i++ { // a whole word of ids past both bitmaps
		if _, err := idx.Add(vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	s := indexShape("stale bitmap", idx, vecs[:n])
	pass := func(id int) bool { return planSel(id) < 50 }
	ctx := core.NewSearchContext()
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		q := ds.Queries.Row(qi)
		res := idx.searchCtx(ctx, q, k, 60, few, nil)
		if res.Hops != 0 {
			t.Fatal("5% of 704 rows should be scanned")
		}
		ids, dists := extractResults(res.Neighbors)
		checkExact(t, s, "scan", q, ids, dists, exactFiltered(s, q, k, pass), pass)

		res = idx.searchCtx(ctx, q, k, k, all, nil)
		if res.Hops == 0 || len(res.Neighbors) != k {
			t.Fatalf("every old row passing at l = k should be walked to k results: %d hops, %d results", res.Hops, len(res.Neighbors))
		}
		for _, nb := range res.Neighbors {
			if int(nb.ID) >= n {
				t.Fatalf("walk: id %d lies past the filter's bitmap", nb.ID)
			}
		}
	}
}
