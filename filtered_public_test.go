package nsg

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// attachTestMetadata gives every id three columns: price (3*id), category
// (cat0..cat4 round-robin) and tags ({"even"} on even ids).
func attachTestMetadata(t testing.TB, set func(*Metadata) error, n int) {
	t.Helper()
	prices := make([]int64, n)
	cats := make([]string, n)
	tags := make([][]string, n)
	for i := 0; i < n; i++ {
		prices[i] = int64(i * 3)
		cats[i] = []string{"cat0", "cat1", "cat2", "cat3", "cat4"}[i%5]
		if i%2 == 0 {
			tags[i] = []string{"even"}
		}
	}
	m := NewMetadata(n)
	if err := m.AddInt64("price", prices); err != nil {
		t.Fatal(err)
	}
	if err := m.AddEnum("category", cats); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTags("tags", tags); err != nil {
		t.Fatal(err)
	}
	if err := set(m); err != nil {
		t.Fatal(err)
	}
}

// bruteforceFiltered returns the exact top-k ids among those passing pass.
func bruteforceFiltered(vectors [][]float32, q []float32, k int, pass func(id int) bool) []int32 {
	type pair struct {
		id int32
		d  float32
	}
	var best []pair
	for i, v := range vectors {
		if !pass(i) {
			continue
		}
		var d float32
		for j := range v {
			diff := v[j] - q[j]
			d += diff * diff
		}
		best = append(best, pair{int32(i), d})
	}
	sort.Slice(best, func(i, j int) bool {
		return best[i].d < best[j].d || (best[i].d == best[j].d && best[i].id < best[j].id)
	})
	if len(best) > k {
		best = best[:k]
	}
	out := make([]int32, len(best))
	for i := range best {
		out[i] = best[i].id
	}
	return out
}

func recallAgainst(got []int32, want []int32) float64 {
	if len(want) == 0 {
		return 1
	}
	set := make(map[int32]bool, len(want))
	for _, id := range want {
		set[id] = true
	}
	hit := 0
	for _, id := range got {
		if set[id] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// TestFilteredSearchParity: filtered search must match brute-force-with-
// filter on single-leaf and conjunctive predicates, across all three serving
// modes. At 1200 rows the planner scans all three passing sets, so the 0.9
// floor is slack; TestFilteredPlanParity is the table that covers the walk.
func TestFilteredSearchParity(t *testing.T) {
	const n, dim, k = 1200, 24, 10
	vecs := randomVectors(n, dim, 3)
	for _, mode := range []QuantMode{QuantNone, QuantSQ8} {
		t.Run(mode.String(), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Quantize = mode
			idx, err := Build(vecs, opts)
			if err != nil {
				t.Fatal(err)
			}
			attachTestMetadata(t, idx.SetMetadata, n)
			for _, tc := range []struct {
				name     string
				pred     Predicate
				pass     func(int) bool
				minRecal float64
			}{
				{"sel50-traversal", HasTag("tags", "even"), func(i int) bool { return i%2 == 0 }, 0.9},
				// 20% of ids: far under the crossover, the exact scan, so
				// demand perfect agreement.
				{"sel20-fallback", Eq("category", "cat2"), func(i int) bool { return i%5 == 2 }, 1.0},
				// Conjunction: price in [0,900) AND even → 150 ids, exact.
				{"and-fallback", And(Range("price", 0, 899), HasTag("tags", "even")), func(i int) bool { return i*3 < 900 && i%2 == 0 }, 1.0},
			} {
				t.Run(tc.name, func(t *testing.T) {
					f, err := idx.CompileFilter(tc.pred)
					if err != nil {
						t.Fatal(err)
					}
					total := 0.0
					for qi := 0; qi < 30; qi++ {
						q := vecs[(qi*37)%n]
						ids, dists := idx.SearchWith(q, k, SearchParams{Filter: f})
						for i, id := range ids {
							if !tc.pass(int(id)) {
								t.Fatalf("query %d: result %d fails the predicate", qi, id)
							}
							if i > 0 && dists[i] < dists[i-1] {
								t.Fatalf("query %d: distances out of order", qi)
							}
						}
						want := bruteforceFiltered(vecs, q, k, tc.pass)
						if len(ids) != len(want) {
							t.Fatalf("query %d: %d results, want %d", qi, len(ids), len(want))
						}
						total += recallAgainst(ids, want)
					}
					if avg := total / 30; avg < tc.minRecal {
						t.Fatalf("avg filtered recall %.3f < %.3f", avg, tc.minRecal)
					}
				})
			}
		})
	}
}

// TestFilteredMappedParity: a mapped index answers filtered queries
// identically to the heap index it was saved from.
func TestFilteredMappedParity(t *testing.T) {
	const n, dim, k = 900, 16, 8
	vecs := randomVectors(n, dim, 4)
	opts := DefaultOptions()
	opts.Quantize = QuantSQ8
	idx, err := Build(vecs, opts)
	if err != nil {
		t.Fatal(err)
	}
	attachTestMetadata(t, idx.SetMetadata, n)
	path := filepath.Join(t.TempDir(), "idx.nsgm")
	if err := idx.SaveMapped(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMapped(path, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if mapped.Metadata() == nil {
		t.Fatal("mapped open dropped the metadata store")
	}
	pred := HasTag("tags", "even")
	hf, err := idx.CompileFilter(pred)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := mapped.CompileFilter(pred)
	if err != nil {
		t.Fatal(err)
	}
	if hf.Count() != mf.Count() {
		t.Fatalf("filter count %d vs %d", hf.Count(), mf.Count())
	}
	for qi := 0; qi < 20; qi++ {
		q := vecs[(qi*41)%n]
		hIDs, hD := idx.SearchWith(q, k, SearchParams{Filter: hf})
		mIDs, mD := mapped.SearchWith(q, k, SearchParams{Filter: mf})
		if len(hIDs) != len(mIDs) {
			t.Fatalf("query %d: %d vs %d results", qi, len(hIDs), len(mIDs))
		}
		for i := range hIDs {
			if hIDs[i] != mIDs[i] || hD[i] != mD[i] {
				t.Fatalf("query %d result %d: heap (%d,%g) vs mapped (%d,%g)", qi, i, hIDs[i], hD[i], mIDs[i], mD[i])
			}
		}
	}
}

// TestFilteredLive: filtered search over a live index sees base rows,
// delta rows appended with AddWithMetadata, and honors deletes — all under
// the filter.
func TestFilteredLive(t *testing.T) {
	const n, dim, k = 800, 16, 10
	vecs := randomVectors(n+40, dim, 5)
	idx, err := Build(vecs[:n], DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	attachTestMetadata(t, idx.SetMetadata, n)
	if err := idx.EnableLiveUpdates(LiveOptions{}); err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	for i := n; i < n+40; i++ {
		row := map[string]any{"price": i * 3, "category": "cat9"}
		if i%2 == 0 {
			row["tags"] = []string{"even"}
		}
		id, err := idx.AddWithMetadata(vecs[i], row)
		if err != nil {
			t.Fatal(err)
		}
		if id != int32(i) {
			t.Fatalf("AddWithMetadata id %d, want %d", id, i)
		}
	}
	victim := int32(n + 2) // even, passes the filter, lives in the delta
	if err := idx.Delete(victim); err != nil {
		t.Fatal(err)
	}
	f, err := idx.CompileFilter(HasTag("tags", "even"))
	if err != nil {
		t.Fatal(err)
	}
	pass := func(i int) bool { return i%2 == 0 && i != int(victim) }
	total := 0.0
	for qi := 0; qi < 20; qi++ {
		q := vecs[(qi*53)%(n+40)]
		ids, _ := idx.SearchWith(q, k, SearchParams{Filter: f})
		for _, id := range ids {
			if !pass(int(id)) {
				t.Fatalf("query %d: id %d should not appear (deleted or non-passing)", qi, id)
			}
		}
		total += recallAgainst(ids, bruteforceFiltered(vecs, q, k, pass))
	}
	if avg := total / 20; avg < 0.85 {
		t.Fatalf("live filtered recall %.3f", avg)
	}
}

// TestFilteredSharded: the sharded fan-out under a shared filter matches
// global brute-force-with-filter, the batch path matches the solo path,
// and disjoint tenant ranges stay perfectly separated.
func TestFilteredSharded(t *testing.T) {
	const n, dim, k = 1500, 16, 10
	vecs := randomVectors(n, dim, 6)
	idx, err := Build(vecs, withShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	attachTestMetadata(t, idx.SetMetadata, n)

	f, err := idx.CompileFilter(HasTag("tags", "even"))
	if err != nil {
		t.Fatal(err)
	}
	pass := func(i int) bool { return i%2 == 0 }
	queries := make([][]float32, 16)
	for qi := range queries {
		queries[qi] = vecs[(qi*71)%n]
	}
	batch := idx.SearchBatchFiltered(queries, k, 60, 2, f)
	total := 0.0
	for qi, q := range queries {
		ids, _ := idx.SearchFilteredWithPool(q, k, 60, f)
		for _, id := range ids {
			if !pass(int(id)) {
				t.Fatalf("query %d: non-passing id %d", qi, id)
			}
		}
		if len(batch[qi].IDs) != len(ids) {
			t.Fatalf("query %d: batch %d results vs solo %d", qi, len(batch[qi].IDs), len(ids))
		}
		for i := range ids {
			if batch[qi].IDs[i] != ids[i] {
				t.Fatalf("query %d result %d: batch id %d vs solo %d", qi, i, batch[qi].IDs[i], ids[i])
			}
		}
		total += recallAgainst(ids, bruteforceFiltered(vecs, q, k, pass))
	}
	if avg := total / float64(len(queries)); avg < 0.9 {
		t.Fatalf("sharded filtered recall %.3f", avg)
	}

	// Multi-tenant: disjoint id ranges must never bleed into each other.
	for tenant := 0; tenant < 3; tenant++ {
		lo, hi := int64(tenant*500*3), int64((tenant+1)*500*3-1)
		tf, err := idx.CompileFilter(Range("price", lo, hi))
		if err != nil {
			t.Fatal(err)
		}
		if tf.Count() != 500 {
			t.Fatalf("tenant %d: filter count %d, want 500", tenant, tf.Count())
		}
		for qi := 0; qi < 8; qi++ {
			ids, _ := idx.SearchFilteredWithPool(vecs[(qi*97)%n], k, 60, tf)
			if len(ids) != k {
				t.Fatalf("tenant %d query %d: %d results", tenant, qi, len(ids))
			}
			for _, id := range ids {
				if int(id) < tenant*500 || int(id) >= (tenant+1)*500 {
					t.Fatalf("tenant %d: id %d leaked across the tenant boundary", tenant, id)
				}
			}
		}
	}
}

// TestFilteredPersistence: metadata survives Save/Load and the sharded
// bundle, and compiled filters agree before and after.
func TestFilteredPersistence(t *testing.T) {
	const n, dim, k = 600, 12, 6
	vecs := randomVectors(n, dim, 7)
	t.Run("single", func(t *testing.T) {
		idx, err := Build(vecs, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		attachTestMetadata(t, idx.SetMetadata, n)
		path := filepath.Join(t.TempDir(), "idx.nsg")
		if err := idx.Save(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Metadata() == nil {
			t.Fatal("Load dropped metadata")
		}
		f1, err := idx.CompileFilter(Eq("category", "cat1"))
		if err != nil {
			t.Fatal(err)
		}
		f2, err := loaded.CompileFilter(Eq("category", "cat1"))
		if err != nil {
			t.Fatal(err)
		}
		if f1.Count() != f2.Count() {
			t.Fatalf("counts diverge: %d vs %d", f1.Count(), f2.Count())
		}
		a, _ := idx.SearchWith(vecs[5], k, SearchParams{Filter: f1})
		b, _ := loaded.SearchWith(vecs[5], k, SearchParams{Filter: f2})
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("result %d: %d vs %d", i, a[i], b[i])
			}
		}
	})
	t.Run("sharded", func(t *testing.T) {
		idx, err := Build(vecs, withShards(3))
		if err != nil {
			t.Fatal(err)
		}
		defer idx.Close()
		attachTestMetadata(t, idx.SetMetadata, n)
		path := filepath.Join(t.TempDir(), "idx.nsgs")
		if err := idx.Save(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadSharded(path)
		if err != nil {
			t.Fatal(err)
		}
		defer loaded.Close()
		if loaded.Metadata() == nil {
			t.Fatal("LoadSharded dropped metadata")
		}
		f, err := loaded.CompileFilter(HasTag("tags", "even"))
		if err != nil {
			t.Fatal(err)
		}
		ids, _ := loaded.SearchFilteredWithPool(vecs[3], k, 40, f)
		if len(ids) != k {
			t.Fatalf("%d results", len(ids))
		}
		for _, id := range ids {
			if id%2 != 0 {
				t.Fatalf("non-passing id %d", id)
			}
		}
	})
}

// TestFilteredCompact: Compact carries surviving metadata rows into the
// new id space, so filters keep meaning the same thing.
func TestFilteredCompact(t *testing.T) {
	const n, dim = 400, 12
	vecs := randomVectors(n, dim, 8)
	idx, err := Build(vecs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	attachTestMetadata(t, idx.SetMetadata, n)
	for id := int32(0); id < 20; id++ {
		if err := idx.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	remap, err := idx.Compact()
	if err != nil {
		t.Fatal(err)
	}
	m := idx.Metadata()
	if m == nil {
		t.Fatal("Compact dropped metadata")
	}
	if m.Rows() != n-20 {
		t.Fatalf("metadata has %d rows, want %d", m.Rows(), n-20)
	}
	// Old id 21 (odd → no tag) and 22 (even → tagged) moved; the tag must
	// have moved with them.
	f, err := idx.CompileFilter(HasTag("tags", "even"))
	if err != nil {
		t.Fatal(err)
	}
	if want := (n - 20) / 2; f.Count() != want {
		t.Fatalf("post-compact filter count %d, want %d", f.Count(), want)
	}
	ids, _ := idx.SearchWith(vecs[22], 5, SearchParams{Filter: f})
	if len(ids) == 0 {
		t.Fatal("no results after compact")
	}
	for _, id := range ids {
		// Surviving even old ids map to passing new ids; check via remap
		// inverse: new id must correspond to an even old id >= 20.
		old := -1
		for o, nw := range remap {
			if nw == id {
				old = o
				break
			}
		}
		if old < 20 || old%2 != 0 {
			t.Fatalf("result new-id %d maps to old id %d, which should not pass", id, old)
		}
	}
}

// TestFilteredEdgeCases: zero-match filters, missing metadata, and the
// nil-filter degradation.
func TestFilteredEdgeCases(t *testing.T) {
	vecs := randomVectors(300, 12, 9)
	idx, err := Build(vecs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.CompileFilter(Eq("category", "x")); !errors.Is(err, ErrNoMetadata) {
		t.Fatalf("CompileFilter without metadata: %v, want ErrNoMetadata", err)
	}
	if _, err := idx.AddWithMetadata(vecs[0], nil); !errors.Is(err, ErrNoMetadata) {
		t.Fatalf("AddWithMetadata without metadata: %v, want ErrNoMetadata", err)
	}
	attachTestMetadata(t, idx.SetMetadata, 300)
	f, err := idx.CompileFilter(Eq("category", "no-such-category"))
	if err != nil {
		t.Fatal(err)
	}
	if f.Count() != 0 {
		t.Fatalf("count %d for impossible predicate", f.Count())
	}
	ids, dists := idx.SearchWith(vecs[0], 5, SearchParams{Filter: f})
	if len(ids) != 0 || len(dists) != 0 {
		t.Fatalf("zero-match filter returned %d results", len(ids))
	}
	if _, err := idx.CompileFilter(Eq("nope", 3)); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := idx.CompileFilter(Eq("price", "string")); err == nil {
		t.Fatal("mistyped operand accepted")
	}
	// nil filter == plain search
	a, _ := idx.SearchWith(vecs[1], 5, SearchParams{Filter: nil})
	b, _ := idx.Search(vecs[1], 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nil filter diverges from Search at %d", i)
		}
	}
}

// TestUnmarshalPredicate: the JSON clause grammar parses to predicates
// equivalent to the Go constructors, and malformed clauses are rejected.
func TestUnmarshalPredicate(t *testing.T) {
	vecs := randomVectors(200, 8, 10)
	idx, err := Build(vecs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	attachTestMetadata(t, idx.SetMetadata, 200)
	equiv := []struct {
		json string
		pred Predicate
	}{
		{`{"col":"category","eq":"cat1"}`, Eq("category", "cat1")},
		{`{"col":"price","eq":33}`, Eq("price", 33)},
		{`{"col":"price","range":[30,300]}`, Range("price", 30, 300)},
		{`{"col":"category","in":["cat1","cat3"]}`, In("category", "cat1", "cat3")},
		{`{"col":"tags","has_tag":"even"}`, HasTag("tags", "even")},
		{`{"and":[{"col":"price","range":[0,299]},{"col":"tags","has_tag":"even"}]}`,
			And(Range("price", 0, 299), HasTag("tags", "even"))},
		{`{"or":[{"col":"category","eq":"cat0"},{"col":"category","eq":"cat4"}]}`,
			Or(Eq("category", "cat0"), Eq("category", "cat4"))},
	}
	for _, tc := range equiv {
		p, err := UnmarshalPredicate([]byte(tc.json))
		if err != nil {
			t.Fatalf("%s: %v", tc.json, err)
		}
		fj, err := idx.CompileFilter(p)
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.json, err)
		}
		fg, err := idx.CompileFilter(tc.pred)
		if err != nil {
			t.Fatal(err)
		}
		if fj.Count() != fg.Count() {
			t.Fatalf("%s: JSON filter count %d != Go %d", tc.json, fj.Count(), fg.Count())
		}
	}
	for _, bad := range []string{
		``,
		`{}`,
		`{"col":"price"}`,
		`{"col":"price","eq":3,"range":[1,2]}`,
		`{"col":"price","range":[1]}`,
		`{"and":[]}`,
		`{"unknown_field":1}`,
		`{"or":[{"col":"price"}]}`,
	} {
		if _, err := UnmarshalPredicate([]byte(bad)); err == nil {
			t.Fatalf("%q parsed without error", bad)
		}
	}
}

// TestUnmarshalPredicateLimits: the wire form rejects filters past the
// clause-count and nesting-depth caps, so a request body cannot force
// unbounded per-request compile work on the serving tier.
func TestUnmarshalPredicateLimits(t *testing.T) {
	leaf := `{"col":"price","eq":1}`
	// Exactly at the clause cap (one and node + cap-1 leaves) parses...
	atCap := `{"and":[` + leaf + strings.Repeat(`,`+leaf, MaxPredicateClauses-2) + `]}`
	if _, err := UnmarshalPredicate([]byte(atCap)); err != nil {
		t.Fatalf("filter at the clause cap rejected: %v", err)
	}
	// ...one more leaf does not.
	overCap := `{"and":[` + leaf + strings.Repeat(`,`+leaf, MaxPredicateClauses-1) + `]}`
	if _, err := UnmarshalPredicate([]byte(overCap)); err == nil {
		t.Fatal("filter over the clause cap accepted")
	}
	// Depth: and-chains at the cap parse, one deeper rejects.
	nest := func(depth int) string {
		return strings.Repeat(`{"and":[`, depth) + leaf + strings.Repeat(`]}`, depth)
	}
	if _, err := UnmarshalPredicate([]byte(nest(MaxPredicateDepth - 1))); err != nil {
		t.Fatalf("filter at the depth cap rejected: %v", err)
	}
	if _, err := UnmarshalPredicate([]byte(nest(MaxPredicateDepth))); err == nil {
		t.Fatal("filter over the depth cap accepted")
	}
}

// TestAddWithMetadataRowLandsAtID: a metadata row always describes the
// vector AddWithMetadata returned the id of — after a rejected row (which
// adds nothing), after a plain Add (whose row is missing), and with two
// writers adding concurrently.
func TestAddWithMetadataRowLandsAtID(t *testing.T) {
	const n0 = 100
	vecs := liveTestVectors(n0+64, 8, 31)
	idx, err := Build(vecs[:n0], DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	m := NewMetadata(n0)
	if err := m.AddEnum("c", make([]string, n0)); err != nil {
		t.Fatal(err)
	}
	if err := idx.SetMetadata(m); err != nil {
		t.Fatal(err)
	}
	// findsOnly checks that the label's filter admits exactly id, and that a
	// search from id's vector answers it.
	findsOnly := func(label string, id int32) {
		t.Helper()
		f, err := idx.CompileFilter(Eq("c", label))
		if err != nil {
			t.Fatal(err)
		}
		ids, _ := idx.SearchFilteredWithPool(idx.Vector(int(id)), 1, 40, f)
		if f.Count() != 1 || len(ids) != 1 || ids[0] != id {
			t.Fatalf("filter c=%q passes %d rows and answers %v, want only id %d", label, f.Count(), ids, id)
		}
	}

	if _, err := idx.AddWithMetadata(vecs[n0], map[string]any{"c": 5}); err == nil {
		t.Fatal("an integer for an enum column must be rejected")
	}
	if idx.Len() != n0 {
		t.Fatalf("a rejected row added its vector: Len %d, want %d", idx.Len(), n0)
	}
	id, err := idx.AddWithMetadata(vecs[n0+1], map[string]any{"c": "after-reject"})
	if err != nil {
		t.Fatal(err)
	}
	findsOnly("after-reject", id)

	plain, err := idx.Add(vecs[n0+2])
	if err != nil {
		t.Fatal(err)
	}
	id, err = idx.AddWithMetadata(vecs[n0+3], map[string]any{"c": "after-plain"})
	if err != nil {
		t.Fatal(err)
	}
	if id != plain+1 {
		t.Fatalf("id %d after plain Add %d", id, plain)
	}
	findsOnly("after-plain", id)

	const writers, each = 2, 25
	got := make([][]int32, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id, err := idx.AddWithMetadata(vecs[n0+4+w*each+i], map[string]any{"c": fmt.Sprintf("w%d-%d", w, i)})
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = append(got[w], id)
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i, id := range got[w] {
			findsOnly(fmt.Sprintf("w%d-%d", w, i), id)
		}
	}
}
