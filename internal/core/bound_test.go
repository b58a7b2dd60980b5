package core_test

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/distsearch"
	"repro/internal/knngraph"
	"repro/internal/live"
	"repro/internal/vecmath"
)

// The quantization error bound must not change an answer: on every index
// shape that serves codes, every plain, filtered-walk and filtered-scan
// query returns the same ids and distance bits with the bound as with the
// whole pool rescored and every passing row scored in float32.

const (
	boundDim = 40 // not a multiple of 16 or 32, so every kernel runs a tail
	boundK   = 10
	boundL   = 40
)

// gaussian returns rows x boundDim standard normal (non-integer) values.
func gaussian(rng *rand.Rand, rows int) vecmath.Matrix {
	m := vecmath.NewMatrix(rows, boundDim)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

// boundFilters are a bitmap passing 10% of ids (the planner scans it) and
// one passing 60% (it walks), over n ids.
func boundFilters(rng *rand.Rand, n int) (scan, walk []uint64, scanCount, walkCount int) {
	scan, walk = make([]uint64, (n+63)/64), make([]uint64, (n+63)/64)
	for id := 0; id < n; id++ {
		r := rng.Float64()
		if r < 0.1 {
			scan[id>>6] |= 1 << (id & 63)
			scanCount++
		}
		if r < 0.6 {
			walk[id>>6] |= 1 << (id & 63)
			walkCount++
		}
	}
	return scan, walk, scanCount, walkCount
}

// answer is one search: nil filter bits means a plain search.
type answer func(q []float32, bits []uint64, count int) []vecmath.Neighbor

// requireBoundInvisible runs every query under no filter and both filters
// with the bound on and off and requires identical ids and distance bits.
func requireBoundInvisible(t *testing.T, what string, search answer, queries vecmath.Matrix, n int, rng *rand.Rand) {
	t.Helper()
	scan, walk, sc, wc := boundFilters(rng, n)
	filters := []struct {
		name  string
		bits  []uint64
		count int
	}{{"plain", nil, 0}, {"filtered walk", walk, wc}, {"filtered scan", scan, sc}}
	t.Cleanup(func() { core.SetQuantBoundOff(false) })
	for _, f := range filters {
		for qi := 0; qi < queries.Rows; qi++ {
			q := queries.Row(qi)
			core.SetQuantBoundOff(false)
			on := search(q, f.bits, f.count)
			core.SetQuantBoundOff(true)
			off := search(q, f.bits, f.count)
			core.SetQuantBoundOff(false)
			if len(on) != len(off) || len(on) == 0 {
				t.Fatalf("%s %s query %d: %d results with the bound, %d without", what, f.name, qi, len(on), len(off))
			}
			for i := range on {
				if on[i].ID != off[i].ID || math.Float32bits(on[i].Dist) != math.Float32bits(off[i].Dist) {
					t.Fatalf("%s %s query %d rank %d: bound gives (%d, %#08x), full rescoring (%d, %#08x)", what, f.name, qi, i,
						on[i].ID, math.Float32bits(on[i].Dist), off[i].ID, math.Float32bits(off[i].Dist))
				}
			}
		}
	}
}

// buildBoundNSG builds a quantized heap index over base in serving order.
func buildBoundNSG(t *testing.T, base vecmath.Matrix) *core.NSG {
	t.Helper()
	knn, err := knngraph.BuildExact(base, 15)
	if err != nil {
		t.Fatal(err)
	}
	x, _, err := core.NSGBuild(knn, base, core.BuildParams{L: 30, M: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	x.Relayout()
	if err := x.EnableQuantization(nil); err != nil {
		t.Fatal(err)
	}
	return x
}

// queryAnswer searches a heap or mapped index with a fresh copy of the
// result, counting distance evaluations into counter.
func queryAnswer(x *core.NSG, counter *vecmath.Counter) answer {
	ctx := core.NewSearchContext()
	return func(q []float32, bits []uint64, count int) []vecmath.Neighbor {
		cq := core.Query{K: boundK, L: boundL, Counter: counter}
		if bits != nil {
			cq.Filter = &core.Filter{Bits: bits, Count: count}
		}
		return append([]vecmath.Neighbor(nil), x.Query(ctx, q, cq).Neighbors...)
	}
}

// TestQuantBoundHeapAndMapped: heap, verified-mapped and NoVerify-mapped
// indexes answer as with the bound off; the NoVerify open, whose ρ is
// unknown, answers as the verified one does; and the bound does skip float
// rows (it is not vacuously off).
func TestQuantBoundHeapAndMapped(t *testing.T) {
	t.Run("sq8", func(t *testing.T) {
		rng := rand.New(rand.NewSource(61))
		const n = 3000
		x := buildBoundNSG(t, gaussian(rng, n))
		// 40 queries from the data's distribution and 10 with one
		// coordinate far outside the trained range: their levels clamp,
		// so ‖q − q̂‖ is most of ε.
		queries := gaussian(rng, 50)
		for qi := 40; qi < 50; qi++ {
			queries.Row(qi)[qi%boundDim] = 40
		}
		var on, off vecmath.Counter
		heap := queryAnswer(x, &on)
		requireBoundInvisible(t, "heap", heap, queries, n, rand.New(rand.NewSource(62)))

		// The scan plan runs with hops 0, the walk with hops > 0.
		scan, walk, sc, wc := boundFilters(rand.New(rand.NewSource(62)), n)
		ctx := core.NewSearchContext()
		if r := x.Query(ctx, queries.Row(0), core.Query{K: boundK, L: boundL, Filter: &core.Filter{Bits: scan, Count: sc}}); r.Hops != 0 {
			t.Fatalf("10%% filter walked (%d hops); the test wants the scan plan", r.Hops)
		}
		if r := x.Query(ctx, queries.Row(0), core.Query{K: boundK, L: boundL, Filter: &core.Filter{Bits: walk, Count: wc}}); r.Hops == 0 {
			t.Fatal("60% filter scanned; the test wants the walk plan")
		}
		// Fewer evaluations with the bound than without: it prunes.
		on.Reset()
		for qi := 0; qi < queries.Rows; qi++ {
			heap(queries.Row(qi), nil, 0)
			heap(queries.Row(qi), scan, sc)
		}
		full := queryAnswer(x, &off)
		core.SetQuantBoundOff(true)
		for qi := 0; qi < queries.Rows; qi++ {
			full(queries.Row(qi), nil, 0)
			full(queries.Row(qi), scan, sc)
		}
		core.SetQuantBoundOff(false)
		if on.Count() >= off.Count() {
			t.Fatalf("%d evaluations with the bound, %d without: nothing was pruned", on.Count(), off.Count())
		}
		t.Logf("%d evaluations with the bound, %d without", on.Count(), off.Count())

		path := filepath.Join(t.TempDir(), "bound.nsgm")
		if err := x.SaveMapped(path); err != nil {
			t.Fatal(err)
		}
		verified, err := core.OpenMapped(path, core.MapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer verified.Close()
		trusted, err := core.OpenMapped(path, core.MapOptions{NoVerify: true})
		if err != nil {
			t.Fatal(err)
		}
		defer trusted.Close()
		requireBoundInvisible(t, "mapped", queryAnswer(verified, nil), queries, n, rand.New(rand.NewSource(63)))
		requireBoundInvisible(t, "NoVerify mapped", queryAnswer(trusted, nil), queries, n, rand.New(rand.NewSource(63)))
		a, b := queryAnswer(verified, nil), queryAnswer(trusted, nil)
		for qi := 0; qi < queries.Rows; qi++ {
			want, got := a(queries.Row(qi), scan, sc), b(queries.Row(qi), scan, sc)
			want = append(want, a(queries.Row(qi), nil, 0)...)
			got = append(got, b(queries.Row(qi), nil, 0)...)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("query %d: NoVerify open answers %v, verified %v", qi, got, want)
				}
			}
		}
	})
}

// farRows returns rows copies of base rows with coordinate 0 moved to
// ten times the trained range, which encode to clamped codes, and queries
// that sit at the edge of the trained range beside each: in code space a
// far row then looks like the query's nearest neighbour, so only a ρ that
// the far rows raised keeps the true neighbours in the rescored set.
func farRows(rng *rand.Rand, base vecmath.Matrix, rows int) (far, edge vecmath.Matrix) {
	far, edge = vecmath.NewMatrix(rows, boundDim), vecmath.NewMatrix(rows, boundDim)
	var hi float32
	for i := 0; i < base.Rows; i++ {
		hi = max(hi, base.Row(i)[0])
	}
	for i := 0; i < rows; i++ {
		copy(far.Row(i), base.Row(rng.Intn(base.Rows)))
		far.Row(i)[0] = 10 * hi
		for d, v := range far.Row(i) {
			edge.Row(i)[d] = v + float32(rng.NormFloat64()*0.05)
		}
		edge.Row(i)[0] = hi
	}
	return far, edge
}

// liveAnswer searches a live handle; translate-free, so filter bits are
// keyed by the ids the handle returns.
func liveAnswer(h *live.Handle) answer {
	ctx := core.NewSearchContext()
	return func(q []float32, bits []uint64, count int) []vecmath.Neighbor {
		cq := core.Query{K: boundK, L: boundL}
		if bits != nil {
			cq.Filter = &core.Filter{Bits: bits, Count: count}
		}
		return append([]vecmath.Neighbor(nil), h.Query(ctx, q, cq).Neighbors...)
	}
}

// TestQuantBoundLive: a live index answers as with the bound off while far
// rows wait in the delta (their clamped codes are outside ρ, so they are
// always rescored and never set the k-th code distance) and after they are
// drained into the snapshot (each Insert raises ρ).
func TestQuantBoundLive(t *testing.T) {
	t.Run("sq8", func(t *testing.T) {
		rng := rand.New(rand.NewSource(64))
		const n, adds = 3000, 120
		base := gaussian(rng, n)
		x := buildBoundNSG(t, base.Clone())
		far, edge := farRows(rng, base, adds/2)
		near := gaussian(rng, adds/2)
		queries := vecmath.NewMatrix(0, boundDim)
		queries.Data = append(append(queries.Data, edge.Data...), gaussian(rng, 20).Data...)
		queries.Rows = edge.Rows + 20

		h := live.New(x, nil, nil, live.Options{MaxPending: 1 << 20, Interval: 1 << 40})
		defer h.Close()
		for i := 0; i < adds/2; i++ {
			for _, v := range [][]float32{far.Row(i), near.Row(i)} {
				if _, err := h.Append(v); err != nil {
					t.Fatal(err)
				}
			}
		}
		if h.Stats().Pending == 0 {
			t.Fatal("nothing pending: the test wants rows in the delta")
		}
		requireBoundInvisible(t, "live pending", liveAnswer(h), queries, n+adds, rand.New(rand.NewSource(65)))
		h.Flush()
		if p := h.Stats().Pending; p != 0 {
			t.Fatalf("%d rows still pending after Flush", p)
		}
		requireBoundInvisible(t, "live drained", liveAnswer(h), queries, n+adds, rand.New(rand.NewSource(66)))
	})
}

// TestQuantBoundSharded: a 2-shard index (filters reach each shard through
// its translate table) answers as with the bound off, before and after
// routed inserts far outside the trained range.
func TestQuantBoundSharded(t *testing.T) {
	t.Run("sq8", func(t *testing.T) {
		rng := rand.New(rand.NewSource(67))
		const n, adds = 3000, 60
		base := gaussian(rng, n)
		p := distsearch.DefaultParams(2)
		p.UseNNDescent = false
		p.Build.L, p.Build.M = 30, 16
		p.Quantize = true
		s, err := distsearch.BuildSharded(base.Clone(), p)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// Hold the delta until Flush, as TestQuantBoundLive does: a
		// maintainer draining the far rows between the bound-on and
		// bound-off searches would hand the two a different graph.
		s.SetLiveOptions(live.Options{MaxPending: 1 << 20, Interval: 1 << 40})
		far, edge := farRows(rng, base, adds)
		queries := vecmath.NewMatrix(0, boundDim)
		queries.Data = append(append(queries.Data, edge.Data...), gaussian(rng, 20).Data...)
		queries.Rows = edge.Rows + 20
		search := func(q []float32, bits []uint64, count int) []vecmath.Neighbor {
			var f *distsearch.ShardedFilter
			if bits != nil {
				f = s.NewFilter(bits, count)
			}
			return s.Search(nil, q, boundK, boundL, f, nil)
		}
		requireBoundInvisible(t, "sharded", search, queries, n, rand.New(rand.NewSource(68)))
		for i := 0; i < adds; i++ {
			if _, _, err := s.Insert(far.Row(i)); err != nil {
				t.Fatal(err)
			}
		}
		requireBoundInvisible(t, "sharded pending", search, queries, n+adds, rand.New(rand.NewSource(69)))
		s.Flush()
		requireBoundInvisible(t, "sharded drained", search, queries, n+adds, rand.New(rand.NewSource(70)))
	})
}
