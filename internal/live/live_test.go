package live

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/knngraph"
	"repro/internal/vecmath"
)

// testVectors returns n deterministic random vectors as one flat matrix.
func testVectors(n, dim int, seed int64) vecmath.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := vecmath.NewMatrix(n, dim)
	for i := range m.Data {
		m.Data[i] = rng.Float32()
	}
	return m
}

// buildNSG builds a small exact-kNN NSG over base (which it takes
// ownership of).
// appendNext appends v to a handle without a translate table, under the
// next id: there final and local ids coincide.
func appendNext(h *Handle, v []float32) (int32, error) { return h.Append(v, int32(h.Len())) }

func buildNSG(t *testing.T, base vecmath.Matrix) *core.NSG {
	t.Helper()
	k := 10
	if k >= base.Rows {
		k = base.Rows - 1
	}
	knn, err := knngraph.BuildExact(base, k)
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := core.NSGBuild(knn, base, core.BuildParams{L: 20, M: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// checkExact verifies one result list against the ledger of true vectors:
// ids in range, no duplicates, distances exactly equal to the float32 L2
// against the ledger row, and ascending (dist, id) order. This is the
// torn-read detector: any partially-written vector or mixed-epoch state
// surfaces as a distance mismatch.
func checkExact(t *testing.T, q []float32, res []vecmath.Neighbor, ledger *vecmath.Matrix, ledgerLen func() int) {
	t.Helper()
	n := ledgerLen()
	seen := make(map[int32]bool, len(res))
	for i, nb := range res {
		if nb.ID < 0 || int(nb.ID) >= n {
			t.Fatalf("result %d: id %d out of ledger range [0,%d)", i, nb.ID, n)
		}
		if seen[nb.ID] {
			t.Fatalf("duplicate id %d in results", nb.ID)
		}
		seen[nb.ID] = true
		if want := vecmath.L2(q, ledger.Row(int(nb.ID))); nb.Dist != want {
			t.Fatalf("result %d (id %d): dist %v != exact %v", i, nb.ID, nb.Dist, want)
		}
		if i > 0 && vecmath.CompareNeighbors(res[i-1], nb) > 0 {
			t.Fatalf("results out of order at %d", i)
		}
	}
}

func TestAppendSearchableImmediately(t *testing.T) {
	const n0, dim = 300, 12
	all := testVectors(n0+50, dim, 1)
	idx := buildNSG(t, all.Slice(0, n0).Clone())
	// A huge interval and threshold so nothing drains during the test: the
	// appended points are served purely by the delta scan.
	h := New(idx, nil, Options{Interval: time.Hour, MaxPending: 1 << 20})
	defer h.Close()
	// Without a translate table the final id is the local id.
	if _, err := h.Append(all.Row(n0), n0+1); err == nil {
		t.Fatal("Append accepted a final id other than the local one on a handle without a translate table")
	}

	ctx := core.NewSearchContext()
	for i := n0; i < all.Rows; i++ {
		id, err := appendNext(h, all.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if id != int32(i) {
			t.Fatalf("append id %d, want %d", id, i)
		}
		res := h.Query(ctx, all.Row(i), core.Query{K: 3, L: 20})
		if len(res.Neighbors) == 0 || res.Neighbors[0].ID != id || res.Neighbors[0].Dist != 0 {
			t.Fatalf("appended point %d not nearest to itself: %+v", id, res.Neighbors)
		}
		checkExact(t, all.Row(i), res.Neighbors, &all, func() int { return i + 1 })
	}
	if st := h.Stats(); st.Pending != 50 || st.SnapshotRows != n0 || st.Drained != 0 {
		t.Fatalf("stats before drain: %+v", st)
	}
	if h.Len() != all.Rows {
		t.Fatalf("Len %d, want %d", h.Len(), all.Rows)
	}
}

func TestFlushDrainsAndMatchesSynchronousInserts(t *testing.T) {
	const n0, extra, dim = 300, 120, 12
	all := testVectors(n0+extra, dim, 2)

	idx := buildNSG(t, all.Slice(0, n0).Clone())
	h := New(idx, nil, Options{Interval: time.Hour, MaxPending: 1 << 20})
	defer h.Close()
	for i := n0; i < all.Rows; i++ {
		if _, err := appendNext(h, all.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	h.Flush()
	st := h.Stats()
	if st.Pending != 0 || st.SnapshotRows != all.Rows || st.Drained != extra || st.Publishes == 0 {
		t.Fatalf("stats after flush: %+v", st)
	}

	// Reference: the same inserts applied synchronously through the same
	// incremental path. The drain is FIFO, so the graphs — and therefore
	// every search result — must match exactly.
	ref := buildNSG(t, all.Slice(0, n0).Clone())
	for i := n0; i < all.Rows; i++ {
		if _, err := ref.Insert(all.Row(i), core.InsertParams{}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, refCtx := core.NewSearchContext(), core.NewSearchContext()
	queries := testVectors(40, dim, 3)
	for qi := 0; qi < queries.Rows; qi++ {
		q := queries.Row(qi)
		got := h.Query(ctx, q, core.Query{K: 10, L: 30})
		want := ref.Query(refCtx, q, core.Query{K: 10, L: 30})
		if len(got.Neighbors) != len(want.Neighbors) {
			t.Fatalf("query %d: %d results vs %d", qi, len(got.Neighbors), len(want.Neighbors))
		}
		for i := range got.Neighbors {
			if got.Neighbors[i] != want.Neighbors[i] {
				t.Fatalf("query %d result %d: %+v != %+v", qi, i, got.Neighbors[i], want.Neighbors[i])
			}
		}
		checkExact(t, q, got.Neighbors, &all, func() int { return all.Rows })
	}
}

// buildLive builds the NSG over base, relaid out and SQ8-quantized when
// quantized is set; two calls with equal arguments build equal indexes.
func buildLive(t *testing.T, base vecmath.Matrix, quantized bool) *core.NSG {
	t.Helper()
	idx := buildNSG(t, base)
	if quantized {
		idx.Relayout()
		if err := idx.EnableQuantization(nil); err != nil {
			t.Fatal(err)
		}
	}
	return idx
}

// checkRows verifies that every ledger row in [lo, hi), snapshot or
// pending, is its own nearest neighbour at distance 0 with exact distances
// throughout, and that Vector returns it.
func checkRows(t *testing.T, h *Handle, all *vecmath.Matrix, lo, hi int) {
	t.Helper()
	ctx := core.NewSearchContext()
	for i := lo; i < hi; i++ {
		res := h.Query(ctx, all.Row(i), core.Query{K: 3, L: 40})
		if len(res.Neighbors) == 0 || res.Neighbors[0].ID != int32(i) || res.Neighbors[0].Dist != 0 {
			t.Fatalf("row %d not nearest to itself: %+v", i, res.Neighbors)
		}
		checkExact(t, all.Row(i), res.Neighbors, all, func() int { return hi })
		if v, ok := h.Vector(int32(i)); !ok || !slices.Equal(v, all.Row(i)) {
			t.Fatalf("Vector(%d) = %v, %v; want row %d", i, v, ok, i)
		}
	}
}

// checkMatchesSync asks h and ref, an index that took the same inserts
// synchronously, the same queries: the drain is FIFO, so every answer must
// match exactly.
func checkMatchesSync(t *testing.T, h *Handle, ref *core.NSG, all *vecmath.Matrix) {
	t.Helper()
	ctx, refCtx := core.NewSearchContext(), core.NewSearchContext()
	queries := testVectors(30, all.Dim, 3)
	for qi := 0; qi < queries.Rows; qi++ {
		q := queries.Row(qi)
		got := h.Query(ctx, q, core.Query{K: 10, L: 30}).Neighbors
		if want := ref.Query(refCtx, q, core.Query{K: 10, L: 30}).Neighbors; !slices.Equal(got, want) {
			t.Fatalf("query %d: %+v, synchronous inserts give %+v", qi, got, want)
		}
		checkExact(t, q, got, all, func() int { return all.Rows })
	}
}

// TestHeldRowsAcrossReplacements holds more than two fresh slabs' worth of
// rows pending, so the slab is replaced twice, each time copying every
// undrained row (256, then 512) into its successor. Every held row must be
// served exactly from the delta, and again from the graph after Flush,
// which must match synchronous inserts.
func TestHeldRowsAcrossReplacements(t *testing.T) {
	const n0, extra, dim = 300, 2*slabRows + 100, 12
	all := testVectors(n0+extra, dim, 21)
	for _, quantized := range []bool{false, true} {
		t.Run(fmt.Sprintf("quantized=%v", quantized), func(t *testing.T) {
			h := New(buildLive(t, all.Slice(0, n0).Clone(), quantized), nil, Options{Interval: time.Hour, MaxPending: 1 << 20})
			defer h.Close()
			for i := n0; i < all.Rows; i++ {
				if _, err := appendNext(h, all.Row(i)); err != nil {
					t.Fatal(err)
				}
			}
			if got := len(h.view.Load().slab.ids); got != 4*slabRows {
				t.Fatalf("slab capacity %d after %d held rows, want %d (two replacements)", got, extra, 4*slabRows)
			}
			if st := h.Stats(); st.Pending != extra || st.SnapshotRows != n0 {
				t.Fatalf("stats while held: %+v", st)
			}
			checkRows(t, h, &all, 0, all.Rows)
			h.Flush()
			if st := h.Stats(); st.Pending != 0 || st.SnapshotRows != all.Rows || st.Drained != extra {
				t.Fatalf("stats after flush: %+v", st)
			}
			checkRows(t, h, &all, 0, all.Rows)
			ref := buildLive(t, all.Slice(0, n0).Clone(), quantized)
			for i := n0; i < all.Rows; i++ {
				if _, err := ref.Insert(all.Row(i), core.InsertParams{}); err != nil {
					t.Fatal(err)
				}
			}
			checkMatchesSync(t, h, ref, &all)
		})
	}
}

// TestDrainOverlapsReplacement stages a drain by hand: the cut takes rows
// [100, 200) of the first slab, then Appends replace the slab twice before
// the drain advances. The replacements copied the slab from row 100, so
// the drained rows are the current slab's first 100, and the skip must
// land there rather than at the cut's end.
func TestDrainOverlapsReplacement(t *testing.T) {
	const n0, extra, dim = 300, 600, 12
	all := testVectors(n0+extra, dim, 22)
	idx := buildNSG(t, all.Slice(0, n0).Clone())
	h := New(idx, nil, Options{Interval: time.Hour, MaxPending: 1 << 20})
	defer h.Close()
	appendRows := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if _, err := appendNext(h, all.Row(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendRows(n0, n0+100)
	// Close, not Flush: it also waits for the maintainer to exit, so the
	// next appends cannot meet it still looping over pending rows and
	// drain before the staged cut. The skip is now 100.
	h.Close()
	appendRows(n0+100, n0+200)

	h.drainMu.Lock()
	c := h.cut()
	if c.lo != 100 || c.hi != 200 {
		t.Fatalf("cut [%d, %d), want [100, 200)", c.lo, c.hi)
	}
	first := c.s
	appendRows(n0+200, all.Rows)
	if h.slab == first {
		t.Fatal("the appends did not replace the slab")
	}
	checkRows(t, h, &all, 0, all.Rows)
	h.drain(c)
	h.drainMu.Unlock()

	h.mu.Lock()
	skip, n := h.skip, int(h.slab.n.Load())
	h.mu.Unlock()
	if skip != 100 || n != extra-100 {
		t.Fatalf("after the drain: skip %d of %d slab rows, want 100 of %d", skip, n, extra-100)
	}
	if st := h.Stats(); st.Pending != extra-200 || st.SnapshotRows != n0+200 || st.Drained != 200 {
		t.Fatalf("stats after the staged drain: %+v", st)
	}
	checkRows(t, h, &all, 0, all.Rows)
	h.Flush()
	checkRows(t, h, &all, 0, all.Rows)
	ref := buildNSG(t, all.Slice(0, n0).Clone())
	for i := n0; i < all.Rows; i++ {
		if _, err := ref.Insert(all.Row(i), core.InsertParams{}); err != nil {
			t.Fatal(err)
		}
	}
	checkMatchesSync(t, h, ref, &all)
}

func TestSnapshotIsolation(t *testing.T) {
	const n0, dim = 300, 12
	all := testVectors(n0+200, dim, 4)
	idx := buildNSG(t, all.Slice(0, n0).Clone())

	// Freeze the pre-mutation view and record its answers.
	snap := idx.Snapshot()
	ctx := core.NewSearchContext()
	queries := testVectors(20, dim, 5)
	type answer struct {
		ids   []int32
		dists []float32
	}
	before := make([]answer, queries.Rows)
	for qi := range before {
		res := snap.Query(ctx, queries.Row(qi), core.Query{K: 10, L: 30})
		for _, nb := range res.Neighbors {
			before[qi].ids = append(before[qi].ids, nb.ID)
			before[qi].dists = append(before[qi].dists, nb.Dist)
		}
	}

	// Mutate heavily through the live path (forcing drains), then re-ask
	// the frozen snapshot: byte-identical answers, or isolation is broken.
	h := New(idx, nil, Options{Interval: time.Millisecond, MaxPending: 16})
	for i := n0; i < all.Rows; i++ {
		if _, err := appendNext(h, all.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	h.Flush()
	h.Close()

	for qi := range before {
		res := snap.Query(ctx, queries.Row(qi), core.Query{K: 10, L: 30})
		if len(res.Neighbors) != len(before[qi].ids) {
			t.Fatalf("query %d: snapshot result count changed", qi)
		}
		for i, nb := range res.Neighbors {
			if nb.ID != before[qi].ids[i] || nb.Dist != before[qi].dists[i] {
				t.Fatalf("query %d result %d changed after mutation: (%d,%v) != (%d,%v)",
					qi, i, nb.ID, nb.Dist, before[qi].ids[i], before[qi].dists[i])
			}
		}
	}
}

// TestSnapshotCopyOnWrite: a drain batch re-prunes adjacency rows the
// published snapshot holds. The batch edits lists copied from the graph and
// publishes a fresh layout, so the old snapshot's rows and Stats stay
// bit-identical, and its answers unchanged while a reader searches it
// through the drain.
func TestSnapshotCopyOnWrite(t *testing.T) {
	const n0, extra, dim = 300, 200, 12
	all := testVectors(n0+extra, dim, 9)
	idx := buildNSG(t, all.Slice(0, n0).Clone())
	h := New(idx, nil, Options{Interval: time.Hour, MaxPending: 1 << 20})
	defer h.Close()
	old := h.view.Load().snap
	shared := idx.FlatView() // the graph old was published with
	rows, stats := shared.ToGraph().Adj, old.Stats()
	queries := testVectors(20, dim, 10)
	ask := func(ctx *core.SearchContext, qi int) string {
		return fmt.Sprint(old.Query(ctx, queries.Row(qi), core.Query{K: 10, L: 30}).Neighbors)
	}
	want := make([]string, queries.Rows)
	for qi := range want {
		want[qi] = ask(core.NewSearchContext(), qi)
	}

	stop, errc := make(chan struct{}), make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := core.NewSearchContext()
		for {
			for qi := range want {
				if got := ask(ctx, qi); got != want[qi] {
					errc <- errf("query %d on the old snapshot changed during the drain: %s, was %s", qi, got, want[qi])
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for i := n0; i < all.Rows; i++ {
		if _, err := appendNext(h, all.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	h.Flush()
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	if !slices.EqualFunc(shared.ToGraph().Adj, rows, slices.Equal) {
		t.Fatal("the drain rewrote the rows a published snapshot holds")
	}
	if got := old.Stats(); got != stats {
		t.Fatalf("old snapshot's Stats changed: %+v, was %+v", got, stats)
	}
	// The batch must have re-pruned (not only appended to) shared rows, or
	// the test exercises nothing.
	now, repruned := idx.FlatView(), 0
	for i := range int32(n0) {
		nb, o := now.Neighbors(i), shared.Neighbors(i)
		if len(nb) < len(o) || !slices.Equal(nb[:len(o)], o) {
			repruned++
		}
	}
	if repruned == 0 {
		t.Fatal("the drain re-pruned no row of the old snapshot")
	}
}

func TestDeleteLive(t *testing.T) {
	const n0, dim = 300, 12
	all := testVectors(n0+20, dim, 6)
	idx := buildNSG(t, all.Slice(0, n0).Clone())
	h := New(idx, nil, Options{Interval: time.Hour, MaxPending: 1 << 20})
	defer h.Close()

	ctx := core.NewSearchContext()
	// Delete a snapshot point: the exact-match query must stop returning it.
	q := all.Row(42)
	res := h.Query(ctx, q, core.Query{K: 1, L: 20})
	if res.Neighbors[0].ID != 42 {
		t.Fatalf("self query returned %d", res.Neighbors[0].ID)
	}
	if err := h.Delete(42); err != nil {
		t.Fatal(err)
	}
	res = h.Query(ctx, q, core.Query{K: 1, L: 20})
	if len(res.Neighbors) == 0 || res.Neighbors[0].ID == 42 {
		t.Fatalf("deleted id still returned: %+v", res.Neighbors)
	}
	if !h.Deleted(42) || h.DeadCount() != 1 {
		t.Fatalf("tombstone state wrong: %v %d", h.Deleted(42), h.DeadCount())
	}

	// Delete a pending delta point before it drains.
	id, err := appendNext(h, all.Row(n0))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(id); err != nil {
		t.Fatal(err)
	}
	res = h.Query(ctx, all.Row(n0), core.Query{K: 1, L: 20})
	if len(res.Neighbors) > 0 && res.Neighbors[0].ID == id {
		t.Fatalf("deleted delta id still returned")
	}

	// Identity mode range- and duplicate-checks under the writer mutex.
	for _, bad := range []int32{-1, id + 1, 42, id} {
		if err := h.Delete(bad); err == nil {
			t.Errorf("Delete(%d) succeeded on a handle serving ids [0,%d] with 42 and %d already deleted", bad, id, id)
		}
	}
	if h.DeadCount() != 2 {
		t.Fatalf("DeadCount = %d after two successful deletes", h.DeadCount())
	}
}

// TestDeleteTranslatedHandle: a translate-mode handle (the sharded path)
// deletes by local id, the id space its pass test checks snapshot and
// pending rows in, range-checked against its own rows; results still carry
// the translated ids, and a pending row's tombstone survives its drain.
func TestDeleteTranslatedHandle(t *testing.T) {
	const n0, dim = 200, 12
	all := testVectors(n0+1, dim, 8)
	idx := buildNSG(t, all.Slice(0, n0).Clone())
	translate := make([]int32, n0)
	for i := range translate {
		translate[i] = int32(1000 + i)
	}
	h := New(idx, translate, Options{Interval: time.Hour, MaxPending: 1 << 20})
	defer h.Close()
	local, err := h.Append(all.Row(n0), 5000)
	if err != nil {
		t.Fatal(err)
	}
	if local != n0 {
		t.Fatalf("Append returned local id %d, want %d", local, n0)
	}
	for _, id := range []int32{7, local} {
		if err := h.Delete(id); err != nil {
			t.Fatalf("Delete(%d) on a translate-mode handle: %v", id, err)
		}
	}
	// Final ids and ids past the handle's rows are out of its range.
	for _, id := range []int32{7, 1007, 5000, -1, n0 + 1, 1 << 30} {
		if err := h.Delete(id); err == nil {
			t.Errorf("Delete(%d) succeeded on a handle serving local ids [0,%d] with 7 already deleted", id, n0)
		}
	}
	if h.DeadCount() != 2 || !h.Deleted(7) || !h.Deleted(local) {
		t.Fatalf("DeadCount = %d after deleting local ids 7 and %d", h.DeadCount(), local)
	}
	check := func(when string) {
		t.Helper()
		ctx := core.NewSearchContext()
		for _, q := range []int{7, n0} {
			res := h.Query(ctx, all.Row(q), core.Query{K: 5, L: 20})
			if len(res.Neighbors) != 5 {
				t.Fatalf("%s: query %d answered %d results", when, q, len(res.Neighbors))
			}
			for _, nb := range res.Neighbors {
				if nb.ID == 1007 || nb.ID == 5000 || nb.ID < 1000 {
					t.Fatalf("%s: query %d returned id %d (deleted, or untranslated)", when, q, nb.ID)
				}
			}
		}
		res := h.Query(ctx, all.Row(8), core.Query{K: 1, L: 20})
		if len(res.Neighbors) != 1 || res.Neighbors[0].ID != 1008 {
			t.Fatalf("%s: self query of local id 8 = %+v, want final id 1008", when, res.Neighbors)
		}
	}
	check("pending")
	h.Flush()
	if !h.Deleted(local) {
		t.Fatal("the pending row's tombstone was lost when it drained")
	}
	check("drained")
}

func TestQuantizedRelaidLive(t *testing.T) {
	const n0, extra, dim = 400, 90, 16
	all := testVectors(n0+extra, dim, 7)
	idx := buildNSG(t, all.Slice(0, n0).Clone())
	idx.Relayout()
	if err := idx.EnableQuantization(nil); err != nil {
		t.Fatal(err)
	}
	h := New(idx, nil, Options{Interval: time.Hour, MaxPending: 1 << 20})
	defer h.Close()

	ctx := core.NewSearchContext()
	for i := n0; i < all.Rows; i++ {
		id, err := appendNext(h, all.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		// The quantized path expands over codes but reranks exactly; delta
		// or not, every emitted distance must be the exact float32 L2.
		res := h.Query(ctx, all.Row(i), core.Query{K: 5, L: 30})
		if res.Neighbors[0].ID != id || res.Neighbors[0].Dist != 0 {
			t.Fatalf("appended point %d not exact-nearest: %+v", id, res.Neighbors[0])
		}
		checkExact(t, all.Row(i), res.Neighbors, &all, func() int { return i + 1 })
	}
	h.Flush()
	queries := testVectors(30, dim, 8)
	for qi := 0; qi < queries.Rows; qi++ {
		q := queries.Row(qi)
		res := h.Query(ctx, q, core.Query{K: 10, L: 40})
		checkExact(t, q, res.Neighbors, &all, func() int { return all.Rows })
	}
}

// TestStraddlePublishConsistency is the live-update torture test: readers
// hammer the index while a writer streams inserts and the maintainer
// publishes aggressively. Every result list must be self-consistent and
// exact against the write-once ledger — a query that straddled a publish
// and saw a torn mix of epochs would return a wrong distance, a duplicate,
// or an out-of-range id. Run with -race this doubles as the lock-free read
// path's race gate.
func TestStraddlePublishConsistency(t *testing.T) {
	const n0, extra, dim, readers = 400, 4 * slabRows, 12, 4
	all := testVectors(n0+extra, dim, 9)
	idx := buildNSG(t, all.Slice(0, n0).Clone())
	// Tiny thresholds force constant drains, and the rows fill the slab
	// often enough to replace it several times while the readers run: a
	// Flush every half slab keeps at most that many rows undrained, so each
	// replacement has room for at least half a slab of new rows.
	h := New(idx, nil, Options{Interval: time.Millisecond, MaxPending: 8})
	defer h.Close()

	var visible atomic.Int64 // ids < visible are safe to validate against
	visible.Store(n0)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ctx := core.NewSearchContext()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			q := make([]float32, dim)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for j := range q {
					q[j] = rng.Float32()
				}
				// Load the visibility floor BEFORE searching: anything the
				// search can see has an id below what was published at that
				// moment... plus whatever landed mid-search, so re-load the
				// ceiling afterwards for the range check.
				res := h.Query(ctx, q, core.Query{K: 10, L: 30})
				ceil := visible.Load()
				seen := make(map[int32]bool, len(res.Neighbors))
				for i, nb := range res.Neighbors {
					if nb.ID < 0 || int64(nb.ID) >= ceil {
						errs <- errf("id %d >= visible ceiling %d", nb.ID, ceil)
						return
					}
					if seen[nb.ID] {
						errs <- errf("duplicate id %d", nb.ID)
						return
					}
					seen[nb.ID] = true
					if want := vecmath.L2(q, all.Row(int(nb.ID))); nb.Dist != want {
						errs <- errf("id %d dist %v != exact %v (torn read?)", nb.ID, nb.Dist, want)
						return
					}
					if i > 0 && vecmath.CompareNeighbors(res.Neighbors[i-1], nb) > 0 {
						errs <- errf("results out of order")
						return
					}
				}
			}
		}(r)
	}

	replacements := 0
	for i, s := n0, (*slab)(nil); i < all.Rows; i++ {
		// Append publishes row i before it returns, so the ceiling admits
		// it first; ids past i still fail the check.
		visible.Store(int64(i + 1))
		if _, err := appendNext(h, all.Row(i)); err != nil {
			t.Fatal(err)
		}
		h.mu.Lock()
		if h.slab != s {
			if s != nil {
				replacements++
			}
			s = h.slab
		}
		h.mu.Unlock()
		if i%50 == 0 {
			time.Sleep(time.Millisecond) // let drains interleave
		}
		if i%(slabRows/2) == 0 {
			h.Flush()
		}
	}
	h.Flush()
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if st := h.Stats(); st.Pending != 0 || st.SnapshotRows != all.Rows {
		t.Fatalf("final stats: %+v", st)
	}
	if replacements < 3 {
		t.Fatalf("the readers ran across %d slab replacements, want at least 3", replacements)
	}
}

func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }

// TestMaintainerRestarts drives the maintainer's lifecycle from several
// goroutines at once: writers append while the delta keeps draining to
// empty (so the maintainer exits and the next Append starts another), and
// a third goroutine interleaves Flush and Close. No row may be lost or
// drained twice, and afterwards no maintainer may be left running.
func TestMaintainerRestarts(t *testing.T) {
	const n0, per, writers, dim = 200, 150, 2, 8
	all := testVectors(n0+writers*per, dim, 13)
	idx := buildNSG(t, all.Slice(0, n0).Clone())
	h := New(idx, nil, Options{Interval: time.Millisecond, MaxPending: 4})

	var wg sync.WaitGroup
	var next atomic.Int64
	next.Store(n0)
	got := make([]int32, all.Rows) // ledger row -> id Append returned
	// Writers agree on the next id under this lock; the handle's own writer
	// mutex, its maintainer and the racing Flush/Close are what is tested.
	var idMu sync.Mutex
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= all.Rows {
					return
				}
				idMu.Lock()
				id, err := appendNext(h, all.Row(i))
				idMu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = id
				if i%16 == 0 {
					time.Sleep(2 * time.Millisecond) // let the delta drain and the maintainer exit
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; next.Load() < int64(all.Rows); i++ {
			if i%2 == 0 {
				h.Flush()
			} else {
				h.Close()
			}
		}
	}()
	wg.Wait()
	<-done
	h.Close()

	st := h.Stats()
	if st.Pending != 0 || st.SnapshotRows != all.Rows || st.Drained != writers*per {
		t.Fatalf("after Close: %+v, want every one of %d rows drained once", st, writers*per)
	}
	h.mu.Lock()
	running := h.stop != nil
	h.mu.Unlock()
	if running {
		t.Fatal("a maintainer is still registered after Close")
	}
	ctx := core.NewSearchContext()
	for i := n0; i < all.Rows; i += 7 {
		res := h.Query(ctx, all.Row(i), core.Query{K: 1, L: 30})
		if len(res.Neighbors) != 1 || res.Neighbors[0].ID != got[i] || res.Neighbors[0].Dist != 0 {
			t.Fatalf("row %d (id %d) not served from the graph: %+v", i, got[i], res.Neighbors)
		}
	}
}
