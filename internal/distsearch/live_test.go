package distsearch

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/live"
	"repro/internal/vecmath"
)

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

	p := DefaultParams(3)
	p.UseNNDescent = false
	s, err := BuildSharded(ledger.Slice(0, n0).Clone(), p)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetLiveOptions(live.Options{MaxPending: 8, Interval: time.Millisecond})

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
					res = s.Search(buf[:0], q, 10, 30, nil, nil)
				} else {
					var st SearchStats
					res = s.Search(buf[:0], q, 10, 30, nil, &st)
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
					// Validate against the index's own global base through
					// the live-safe accessor: concurrent writers hand out
					// gids in mu order, so gid->vector is defined by
					// the index, and VectorByID is exercised concurrently
					// with appends here (it must not race).
					if want := vecmath.L2(q, s.VectorByID(int(nb.ID))); nb.Dist != want {
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

	// Two concurrent writers racing through Insert itself (no outer
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
				gid, sh, err := s.Insert(ledger.Row(i))
				if err != nil {
					t.Errorf("insert %d: %v", i, err)
					return
				}
				if sh < 0 || sh >= s.Shards() {
					t.Errorf("insert %d: shard %d", i, sh)
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
	s.Flush()
	close(stop)
	wg.Wait()

	if s.Len() != ledger.Rows {
		t.Fatalf("Len %d, want %d", s.Len(), ledger.Rows)
	}
	st := s.LiveStats()
	if st.Pending != 0 || st.SnapshotRows != ledger.Rows || st.Drained != extra {
		t.Fatalf("live stats after flush: %+v", st)
	}
	sizes := s.ShardSizes()
	total := 0
	for _, sz := range sizes {
		total += sz
	}
	if total != ledger.Rows {
		t.Fatalf("shard sizes %v sum to %d, want %d", sizes, total, ledger.Rows)
	}

	// Every inserted point is now graph-served: self-queries must find it
	// at exact distance 0 (its gid depends on the writers' interleaving,
	// so only the distance is asserted).
	for i := n0; i < ledger.Rows; i += 17 {
		res := s.Search(nil, ledger.Row(i), 1, 30, nil, nil)
		if len(res) != 1 || res[0].Dist != 0 {
			t.Fatalf("drained point %d not findable: %+v", i, res)
		}
	}
}

// TestLiveShardedLocator races Insert against VectorByID and Search while
// tiny drain thresholds keep the maintainers publishing: every inserted id
// must resolve to its own row both while it is pending and after it
// drained, and once flushed, the locator and the shard's translate table
// must agree on it. Row i of the ledger carries i in its first coordinate,
// so any resolved row names the ledger row it must equal.
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

	p := DefaultParams(3)
	p.UseNNDescent = false
	s, err := BuildSharded(ledger.Slice(0, n0).Clone(), p)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetLiveOptions(live.Options{MaxPending: 4, Interval: time.Millisecond})

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
				if v := s.VectorByID(rng.Intn(s.Len())); !isLedgerRow(v) {
					t.Errorf("VectorByID returned %v, not a ledger row", v)
					return
				}
				q := ledger.Row(rng.Intn(ledger.Rows))
				for _, nb := range s.Search(nil, q, 5, 20, nil, nil) {
					if v := s.VectorByID(int(nb.ID)); !isLedgerRow(v) || vecmath.L2(q, v) != nb.Dist {
						t.Errorf("result id %d resolves to %v at a distance other than %v", nb.ID, v, nb.Dist)
						return
					}
				}
			}
		}(r)
	}

	type insert struct{ row, gid, shard int }
	inserts := make([][]insert, 2)
	var wwg sync.WaitGroup
	for w := range inserts {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for i := n0 + w; i < ledger.Rows; i += len(inserts) {
				gid, sh, err := s.Insert(ledger.Row(i))
				if err != nil {
					t.Errorf("insert %d: %v", i, err)
					return
				}
				if !slices.Equal(s.VectorByID(int(gid)), ledger.Row(i)) {
					t.Errorf("gid %d of row %d does not resolve to its row while pending", gid, i)
					return
				}
				inserts[w] = append(inserts[w], insert{i, int(gid), sh})
			}
		}(w)
	}
	wwg.Wait()
	s.Flush()
	close(stop)
	wg.Wait()

	if s.Len() != ledger.Rows {
		t.Fatalf("Len %d, want %d", s.Len(), ledger.Rows)
	}
	for _, ins := range inserts {
		for _, in := range ins {
			if !slices.Equal(s.VectorByID(in.gid), ledger.Row(in.row)) {
				t.Fatalf("gid %d of row %d does not resolve to its row after the drain", in.gid, in.row)
			}
			l := s.loc[in.gid]
			if int(l.shard) != in.shard {
				t.Fatalf("gid %d located in shard %d, inserted into %d", in.gid, l.shard, in.shard)
			}
			if g := s.handles[l.shard].Translate()[l.local]; g != int32(in.gid) {
				t.Fatalf("shard %d Translate()[%d] = %d, want gid %d", l.shard, l.local, g, in.gid)
			}
		}
	}
}
