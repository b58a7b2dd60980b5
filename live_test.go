package nsg

import (
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/vecmath"
)

func liveTestVectors(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32()
		}
		out[i] = v
	}
	return out
}

// TestLiveIndexConcurrentAddSearch is the public-API live contract:
// concurrent Adds and Searches, every result exact against the write-once
// ledger, every added point immediately findable, and the drained index
// identical to one that inserted synchronously.
func TestLiveIndexConcurrentAddSearch(t *testing.T) {
	const n0, extra, dim = 500, 200, 12
	all := liveTestVectors(n0+extra, dim, 21)

	opts := DefaultOptions()
	opts.ExactKNN = true
	idx, err := Build(all[:n0], opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.EnableLiveUpdates(LiveOptions{MaxPending: 32, PublishInterval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	// Enabling again only replaces the cadence.
	if err := idx.EnableLiveUpdates(LiveOptions{MaxPending: 32, PublishInterval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
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
				ids, dists := idx.SearchWithPool(q, 10, 40)
				for i, id := range ids {
					if want := vecmath.L2(q, all[id]); dists[i] != want {
						t.Errorf("id %d dist %v != exact %v", id, dists[i], want)
						return
					}
				}
			}
		}(r)
	}
	for i := n0; i < len(all); i++ {
		id, err := idx.Add(all[i])
		if err != nil {
			t.Fatal(err)
		}
		if id != int32(i) {
			t.Fatalf("add id %d, want %d", id, i)
		}
		// The point must be findable before any drain could have happened.
		ids, dists := idx.SearchWithPool(all[i], 1, 40)
		if len(ids) != 1 || ids[0] != id || dists[0] != 0 {
			t.Fatalf("added point %d not immediately findable: %v %v", id, ids, dists)
		}
	}
	close(stop)
	wg.Wait()

	idx.Flush()
	st := idx.MaintenanceStats()
	if st.Pending != 0 || st.SnapshotRows != len(all) || st.Drained != extra || st.Publishes == 0 {
		t.Fatalf("maintenance stats after flush: %+v", st)
	}
	if idx.Len() != len(all) {
		t.Fatalf("Len %d, want %d", idx.Len(), len(all))
	}
	if idx.Stats().N != len(all) {
		t.Fatalf("Stats().N = %d, want %d", idx.Stats().N, len(all))
	}

	// Parity with synchronous inserts: drains are FIFO through the same
	// incremental path, so results must match exactly.
	ref, err := Build(all[:n0], opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for i := n0; i < len(all); i++ {
		if _, err := ref.Add(all[i]); err != nil {
			t.Fatal(err)
		}
	}
	ref.Flush()
	for qi := 0; qi < 30; qi++ {
		q := all[(qi*13)%len(all)]
		gi, gd := idx.SearchWithPool(q, 10, 40)
		wi, wd := ref.SearchWithPool(q, 10, 40)
		if len(gi) != len(wi) {
			t.Fatalf("query %d: %d vs %d results", qi, len(gi), len(wi))
		}
		for i := range gi {
			if gi[i] != wi[i] || gd[i] != wd[i] {
				t.Fatalf("query %d result %d: (%d,%v) != (%d,%v)", qi, i, gi[i], gd[i], wi[i], wd[i])
			}
		}
	}

	// SearchWithStats still reports work on the live path.
	_, _, stats := idx.SearchWithStats(all[3], 5, 40)
	if stats.Hops == 0 || stats.DistanceComputations == 0 {
		t.Fatalf("live SearchWithStats reported no work: %+v", stats)
	}
}

// TestLiveIndexDeleteThenCompact: Compact after Adds and Deletes that went
// through the handle — some still pending in the delta — returns the remap,
// answers the brute force over the survivors, and leaves an index whose
// next Add is searchable.
func TestLiveIndexDeleteThenCompact(t *testing.T) {
	const n0, extra, k = 300, 60, 10
	all := liveTestVectors(n0+extra+1, 10, 22)
	opts := DefaultOptions()
	opts.ExactKNN = true
	idx, err := Build(all[:n0], opts)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if err := idx.EnableLiveUpdates(LiveOptions{MaxPending: 1 << 20, PublishInterval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	for i := n0; i < n0+extra; i++ {
		if _, err := idx.Add(all[i]); err != nil {
			t.Fatal(err)
		}
	}
	dead := map[int32]bool{}
	for _, id := range []int32{7, 11, 150, n0 + 3, n0 + extra - 1} {
		if err := idx.Delete(id); err != nil {
			t.Fatal(err)
		}
		dead[id] = true
	}
	if err := idx.Delete(11); err == nil {
		t.Fatal("double delete must fail")
	}
	remap, err := idx.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if len(remap) != n0+extra || idx.Len() != n0+extra-len(dead) || idx.DeletedCount() != 0 {
		t.Fatalf("after Compact: remap %d entries, Len %d, %d deleted", len(remap), idx.Len(), idx.DeletedCount())
	}
	survivors := make([][]float32, idx.Len())
	for old, nw := range remap {
		if dead[int32(old)] != (nw < 0) {
			t.Fatalf("remap[%d] = %d with deleted = %v", old, nw, dead[int32(old)])
		}
		if nw >= 0 {
			survivors[nw] = all[old]
		}
	}
	everyRow := func(int32) bool { return true }
	var hits, wanted int
	for qi := 0; qi < 40; qi++ {
		q := all[(qi*37)%len(all)]
		ids, _ := idx.SearchWithPool(q, k, 60)
		want := oracleTopK(survivors, q, k, everyRow)
		hits += int(recallAgainst(ids, want)*float64(len(want)) + 0.5)
		wanted += len(want)
	}
	if recall := float64(hits) / float64(wanted); recall < 0.97 {
		t.Fatalf("recall@%d after Compact = %.4f, want >= 0.97", k, recall)
	}
	id, err := idx.Add(all[n0+extra])
	if err != nil {
		t.Fatal(err)
	}
	if int(id) != len(survivors) {
		t.Fatalf("Add after Compact returned id %d, want %d", id, len(survivors))
	}
	if ids, dists := idx.SearchWithPool(all[n0+extra], 1, 40); len(ids) != 1 || ids[0] != id || dists[0] != 0 {
		t.Fatalf("row added after Compact not found: %v %v", ids, dists)
	}
}

func TestLiveIndexSaveLoad(t *testing.T) {
	const n0, extra, dim = 400, 80, 10
	all := liveTestVectors(n0+extra, dim, 23)
	opts := DefaultOptions()
	opts.ExactKNN = true
	idx, err := Build(all[:n0], opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.EnableLiveUpdates(LiveOptions{MaxPending: 32, PublishInterval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	for i := n0; i < len(all); i++ {
		if _, err := idx.Add(all[i]); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "live.nsg")
	if err := idx.Save(path); err != nil { // Save flushes internally
		t.Fatal(err)
	}
	re, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != len(all) {
		t.Fatalf("reloaded Len %d, want %d", re.Len(), len(all))
	}
	for _, probe := range []int{0, n0 - 1, n0, len(all) - 1} {
		ids, dists := re.SearchWithPool(all[probe], 1, 40)
		if len(ids) != 1 || ids[0] != int32(probe) || dists[0] != 0 {
			t.Fatalf("probe %d after reload: %v %v", probe, ids, dists)
		}
	}
}

// TestLiveDrainedRecallMatchesBatch is the live path's quality bar: rows
// streamed through Add and drained into the graph must leave an index whose
// recall@10 is within 0.01 of a batch build over the same rows. The pool is
// kept small so neither recall saturates at 1 and the bound can bite.
func TestLiveDrainedRecallMatchesBatch(t *testing.T) {
	const n0, extra, k, l = 600, 400, 10, 12
	ds, err := dataset.SIFTLike(dataset.Config{N: n0 + extra, Queries: 30, GTK: k, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Seed = 25
	idx, err := BuildFromFlat(ds.Base.Slice(0, n0).Clone().Data, ds.Base.Dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.EnableLiveUpdates(LiveOptions{MaxPending: 64, PublishInterval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	for i := n0; i < ds.Base.Rows; i++ {
		if _, err := idx.Add(ds.Base.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	idx.Flush()
	if st := idx.MaintenanceStats(); st.Pending != 0 || st.SnapshotRows != ds.Base.Rows {
		t.Fatalf("live index did not drain: %+v", st)
	}
	batch, err := BuildFromFlat(ds.Base.Clone().Data, ds.Base.Dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	recall := func(x *Index) float64 {
		got := make([][]int32, ds.Queries.Rows)
		for qi := range got {
			got[qi], _ = x.SearchWithPool(ds.Queries.Row(qi), k, l)
		}
		return dataset.MeanRecall(got, ds.GT, k)
	}
	live, ref := recall(idx), recall(batch)
	if ref < 0.9 || live < ref-0.01 {
		t.Fatalf("drained live recall@%d %.4f, batch build %.4f: want batch >= 0.9 and live within 0.01 of it", k, live, ref)
	}
}

// TestLiveShardedConcurrentAddSearch exercises the sharded live path:
// routed non-blocking inserts under concurrent fan-out searches, global
// ids, and aggregate maintenance stats.
func TestLiveShardedConcurrentAddSearch(t *testing.T) {
	const n0, extra, dim = 600, 150, 12
	all := liveTestVectors(n0+extra, dim, 24)
	opts := DefaultOptions()
	opts.Shards, opts.ExactKNN = 3, true
	idx, err := Build(all[:n0], opts)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if err := idx.EnableLiveUpdates(LiveOptions{MaxPending: 32, PublishInterval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + r)))
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
				ids, dists := idx.SearchWithPool(q, 10, 40)
				for i, id := range ids {
					if want := vecmath.L2(q, all[id]); dists[i] != want {
						t.Errorf("id %d dist %v != exact %v", id, dists[i], want)
						return
					}
				}
			}
		}(r)
	}
	for i := n0; i < len(all); i++ {
		id, err := idx.Add(all[i])
		if err != nil {
			t.Fatal(err)
		}
		if id != int32(i) {
			t.Fatalf("add id %d, want %d", id, i)
		}
		ids, dists := idx.SearchWithPool(all[i], 1, 40)
		if len(ids) != 1 || ids[0] != id || dists[0] != 0 {
			t.Fatalf("added point %d not immediately findable: %v %v", id, ids, dists)
		}
	}
	close(stop)
	wg.Wait()

	idx.Flush()
	st := idx.MaintenanceStats()
	if st.Pending != 0 || st.SnapshotRows != len(all) || st.Drained != extra {
		t.Fatalf("aggregate maintenance stats: %+v", st)
	}
	if idx.Len() != len(all) || idx.Stats().N != len(all) {
		t.Fatalf("Len/Stats after flush: %d / %d", idx.Len(), idx.Stats().N)
	}

	// Save/Load after flush keeps every point (the id maps grown during
	// drains must persist).
	path := filepath.Join(t.TempDir(), "live.nsg")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	re, err := LoadSharded(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(all) {
		t.Fatalf("reloaded Len %d, want %d", re.Len(), len(all))
	}
	for _, probe := range []int{0, n0, len(all) - 1} {
		ids, dists := re.SearchWithPool(all[probe], 1, 40)
		if len(ids) != 1 || ids[0] != int32(probe) || dists[0] != 0 {
			t.Fatalf("probe %d after reload: %v %v", probe, ids, dists)
		}
	}
	// SearchWithStats merges per-shard work on the live path too.
	_, _, stats := idx.SearchWithStats(all[5], 5, 40)
	if stats.Hops == 0 || stats.DistanceComputations == 0 {
		t.Fatalf("live sharded stats: %+v", stats)
	}
}

// TestMaintainerStartsWithFirstAdd: an index that is built and searched but
// never written runs no goroutine of its own; the first Add starts the
// maintainer, and Close stops it again.
func TestMaintainerStartsWithFirstAdd(t *testing.T) {
	all := liveTestVectors(301, 8, 26)
	idx, err := Build(all[:300], DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Only maintainers are counted: other goroutines (the build's parallel
	// loops) come and go on their own schedule.
	base := settledCount(maintainers)
	for i := 0; i < 20; i++ {
		idx.Search(all[i], 5)
	}
	idx.SearchBatch(all[:20], 5, 40, 1)
	if n := maintainers(); n != base {
		t.Fatalf("%d maintainers after searches, %d before: a never-written index started one", n, base)
	}
	if _, err := idx.Add(all[300]); err != nil {
		t.Fatal(err)
	}
	if n := maintainers(); n != base+1 {
		t.Fatalf("%d maintainers after the first Add, want %d", n, base+1)
	}
	idx.Close()
	// A stopped maintainer may take a moment to exit.
	for deadline := time.Now().Add(2 * time.Second); maintainers() != base && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if n := maintainers(); n != base {
		t.Fatalf("%d maintainers after Close, want %d", n, base)
	}
	if ids, _ := idx.SearchWithPool(all[300], 1, 40); len(ids) != 1 || ids[0] != 300 {
		t.Fatalf("row added before Close not served: %v", ids)
	}
}

// shardedLedgerIndex builds a 3-shard index over the first n0 ledger rows
// with shardTestOptions, its maintainers draining at maxPending rows or
// every millisecond.
func shardedLedgerIndex(t *testing.T, ledger vecmath.Matrix, n0, maxPending int) *Index {
	t.Helper()
	x, err := BuildShardedFromFlat(ledger.Slice(0, n0).Clone().Data, ledger.Dim, ShardedOptions{Shards: 3, Shard: shardTestOptions})
	if err != nil {
		t.Fatal(err)
	}
	if err := x.EnableLiveUpdates(LiveOptions{MaxPending: maxPending, PublishInterval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	return x
}

// TestLiveShardedStress is the mixed insert/search/publish hammer the CI
// race job runs: writers stream routed inserts through the per-shard delta
// buffers while readers fan out searches, with tiny drain thresholds so
// the maintainers publish constantly underneath them. Every result is
// validated against the write-once ledger — exact distance, unique ids,
// sorted order — so a torn read or a mixed-epoch view fails loudly even
// without -race.
func TestLiveShardedStress(t *testing.T) {
	const n0, extra, dim, readers = 600, 300, 10, 4
	ledger := vecmath.NewMatrix(n0+extra, dim)
	rng := rand.New(rand.NewSource(41))
	for i := range ledger.Data {
		ledger.Data[i] = rng.Float32()
	}
	x := shardedLedgerIndex(t, ledger, n0, 8)
	defer x.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + r)))
			q := make([]float32, dim)
			buf := make([]vecmath.Neighbor, 0, 10)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for j := range q {
					q[j] = rng.Float32()
				}
				var res []vecmath.Neighbor
				if r%2 == 0 {
					res = x.s.search(buf[:0], q, 10, 30, nil, nil)
				} else {
					var st SearchStats
					res = x.s.search(buf[:0], q, 10, 30, nil, &st)
					if st.Hops == 0 {
						t.Error("stats search reported zero hops")
						return
					}
				}
				seen := make(map[int32]bool, len(res))
				for i, nb := range res {
					if nb.ID < 0 || int(nb.ID) >= ledger.Rows || seen[nb.ID] {
						t.Errorf("bad or duplicate id %d", nb.ID)
						return
					}
					seen[nb.ID] = true
					// Validate against the index's own rows through the
					// live-safe accessor: concurrent writers hand out gids
					// in mu order, so gid->vector is defined by the index,
					// and Vector is exercised concurrently with appends
					// here (it must not race).
					if want := vecmath.L2(q, x.Vector(int(nb.ID))); nb.Dist != want {
						t.Errorf("id %d dist %v != exact %v (torn read?)", nb.ID, nb.Dist, want)
						return
					}
					if i > 0 && vecmath.CompareNeighbors(res[i-1], nb) > 0 {
						t.Error("results out of order")
						return
					}
				}
			}
		}(r)
	}

	// Two concurrent writers racing through Add itself (no outer
	// serialization): each claims rows by atomic counter and records the
	// gid it was handed; afterwards the gid set must be exactly the dense
	// range [n0, rows) — the global allocator under mu cannot skip,
	// duplicate, or misalign ids even with appends arriving at one shard
	// out of gid order. The ledger row a gid maps to is validated too: the
	// readers' exact-distance checks would catch a vector filed under the
	// wrong id.
	var claim atomic.Int64
	claim.Store(n0)
	gids := make([]int32, extra) // slot i-n0 gets the gid for ledger row i
	var wwg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			for {
				i := int(claim.Add(1)) - 1
				if i >= ledger.Rows {
					return
				}
				gid, err := x.Add(ledger.Row(i))
				if err != nil {
					t.Errorf("insert %d: %v", i, err)
					return
				}
				gids[i-n0] = gid
			}
		}()
	}
	wwg.Wait()
	seenGid := make(map[int32]bool, extra)
	for i, gid := range gids {
		if gid < int32(n0) || gid >= int32(ledger.Rows) || seenGid[gid] {
			t.Fatalf("insert %d: gid %d not a fresh id in [%d,%d)", n0+i, gid, n0, ledger.Rows)
		}
		seenGid[gid] = true
	}
	x.Flush()
	close(stop)
	wg.Wait()

	if x.Len() != ledger.Rows {
		t.Fatalf("Len %d, want %d", x.Len(), ledger.Rows)
	}
	st := x.MaintenanceStats()
	if st.Pending != 0 || st.SnapshotRows != ledger.Rows || st.Drained != extra {
		t.Fatalf("live stats after flush: %+v", st)
	}
	total := 0
	for _, sz := range x.Stats().ShardSizes {
		total += sz
	}
	if total != ledger.Rows {
		t.Fatalf("shard sizes %v sum to %d, want %d", x.Stats().ShardSizes, total, ledger.Rows)
	}

	// Every inserted point is now graph-served: self-queries must find it
	// at exact distance 0 (its gid depends on the writers' interleaving,
	// so only the distance is asserted).
	for i := n0; i < ledger.Rows; i += 17 {
		if _, dists := x.SearchWithPool(ledger.Row(i), 1, 30); len(dists) != 1 || dists[0] != 0 {
			t.Fatalf("drained point %d not findable: %v", i, dists)
		}
	}
}

// TestLiveShardedLocator races Add against Vector and Search while tiny
// drain thresholds keep the maintainers publishing: every inserted id must
// resolve to its own row both while it is pending and after it drained,
// and once flushed, the locator and the shard's translate table must agree
// on it. Row i of the ledger carries i in its first coordinate, so any
// resolved row names the ledger row it must equal.
func TestLiveShardedLocator(t *testing.T) {
	const n0, extra, dim = 300, 300, 8
	ledger := vecmath.NewMatrix(n0+extra, dim)
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < ledger.Rows; i++ {
		row := ledger.Row(i)
		row[0] = float32(i)
		for j := 1; j < dim; j++ {
			row[j] = rng.Float32()
		}
	}
	isLedgerRow := func(v []float32) bool {
		i := int(v[0])
		return len(v) == dim && i >= 0 && i < ledger.Rows && slices.Equal(v, ledger.Row(i))
	}
	x := shardedLedgerIndex(t, ledger, n0, 4)
	defer x.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(600 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v := x.Vector(rng.Intn(x.Len())); !isLedgerRow(v) {
					t.Errorf("Vector returned %v, not a ledger row", v)
					return
				}
				q := ledger.Row(rng.Intn(ledger.Rows))
				ids, dists := x.SearchWithPool(q, 5, 20)
				for i, id := range ids {
					if v := x.Vector(int(id)); !isLedgerRow(v) || vecmath.L2(q, v) != dists[i] {
						t.Errorf("result id %d resolves to %v at a distance other than %v", id, v, dists[i])
						return
					}
				}
			}
		}(r)
	}

	type insert struct{ row, gid int }
	inserts := make([][]insert, 2)
	var wwg sync.WaitGroup
	for w := range inserts {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for i := n0 + w; i < ledger.Rows; i += len(inserts) {
				gid, err := x.Add(ledger.Row(i))
				if err != nil {
					t.Errorf("insert %d: %v", i, err)
					return
				}
				if !slices.Equal(x.Vector(int(gid)), ledger.Row(i)) {
					t.Errorf("gid %d of row %d does not resolve to its row while pending", gid, i)
					return
				}
				inserts[w] = append(inserts[w], insert{i, int(gid)})
			}
		}(w)
	}
	wwg.Wait()
	x.Flush()
	close(stop)
	wg.Wait()

	if x.Len() != ledger.Rows {
		t.Fatalf("Len %d, want %d", x.Len(), ledger.Rows)
	}
	for _, ins := range inserts {
		for _, in := range ins {
			if !slices.Equal(x.Vector(in.gid), ledger.Row(in.row)) {
				t.Fatalf("gid %d of row %d does not resolve to its row after the drain", in.gid, in.row)
			}
			l := x.s.loc[in.gid]
			if g := x.s.handles[l.shard].Translate()[l.local]; g != int32(in.gid) {
				t.Fatalf("shard %d Translate()[%d] = %d, want gid %d", l.shard, l.local, g, in.gid)
			}
		}
	}
}
