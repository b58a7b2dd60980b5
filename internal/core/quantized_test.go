package core

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/knngraph"
	"repro/internal/vecmath"
	"repro/internal/vecmath/quant"
)

// testBase generates a deterministic base set.
func testBase(t testing.TB, n, dim int, seed int64) vecmath.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := vecmath.NewMatrix(n, dim)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*10 - 5
	}
	return m
}

// buildTestNSG builds a small NSG with the exact kNN pipeline so repeated
// builds are identical.
func buildQuantTestNSG(t testing.TB, base vecmath.Matrix) *NSG {
	t.Helper()
	knn, err := knngraph.BuildExact(base, 12)
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := NSGBuild(knn, base, BuildParams{L: 30, M: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestRelayoutPreservesResults: after the BFS relayout, searches must
// return the same (public id, distance) sequences as before — the
// permutation is invisible except through memory behavior.
func TestRelayoutPreservesResults(t *testing.T) {
	base := testBase(t, 800, 24, 1)
	plain := buildQuantTestNSG(t, base.Clone())
	relay := buildQuantTestNSG(t, base.Clone())
	relay.Relayout()

	if relay.Navigating != 0 {
		t.Fatalf("BFS relayout should renumber the navigating node to 0, got %d", relay.Navigating)
	}
	ctxA, ctxB := NewSearchContext(), NewSearchContext()
	queries := testBase(t, 50, 24, 2)
	for qi := 0; qi < queries.Rows; qi++ {
		q := queries.Row(qi)
		a := plain.Query(ctxA, q, Query{K: 10, L: 40})
		b := relay.Query(ctxB, q, Query{K: 10, L: 40})
		if len(a.Neighbors) != len(b.Neighbors) {
			t.Fatalf("query %d: result lengths %d vs %d", qi, len(a.Neighbors), len(b.Neighbors))
		}
		for i := range a.Neighbors {
			if a.Neighbors[i].Dist != b.Neighbors[i].Dist {
				t.Fatalf("query %d rank %d: dist %g vs %g", qi, i, a.Neighbors[i].Dist, b.Neighbors[i].Dist)
			}
		}
	}

	// The remap must be a self-consistent permutation and the permuted base
	// must hold every public vector at its internal row.
	for pub := int32(0); int(pub) < base.Rows; pub++ {
		internal := relay.InternalID(pub)
		if relay.PublicID(internal) != pub {
			t.Fatalf("remap not involutive at public id %d", pub)
		}
		got := relay.VectorByID(pub)
		want := base.Row(int(pub))
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("VectorByID(%d) differs at dim %d", pub, d)
			}
		}
	}
}

// TestRelayoutImprovesBFSLocality sanity-checks the point of the
// permutation: after relayout, edges should connect nearby rows far more
// often than before.
func TestRelayoutImprovesBFSLocality(t *testing.T) {
	base := testBase(t, 1500, 16, 3)
	idx := buildQuantTestNSG(t, base)
	span := func(g *NSG) float64 {
		var total, edges float64
		for i, adj := range g.Graph.Adj {
			for _, nb := range adj {
				d := float64(int32(i) - nb)
				if d < 0 {
					d = -d
				}
				total += d
				edges++
			}
		}
		return total / edges
	}
	before := span(idx)
	idx.Relayout()
	after := span(idx)
	if after >= before {
		t.Fatalf("relayout did not reduce mean edge span: before %.1f, after %.1f", before, after)
	}
}

// TestQuantizedSearchMatchesFloat: with rerank, quantized results must match
// the float path's recall closely; distances must be exact float32 values.
func TestQuantizedSearchMatchesFloat(t *testing.T) {
	base := testBase(t, 1000, 32, 4)
	idx := buildQuantTestNSG(t, base.Clone())
	qidx := buildQuantTestNSG(t, base.Clone())
	qidx.Relayout()
	if err := qidx.EnableQuantization(nil); err != nil {
		t.Fatal(err)
	}
	ctxA, ctxB := NewSearchContext(), NewSearchContext()
	queries := testBase(t, 40, 32, 5)
	agree := 0
	total := 0
	for qi := 0; qi < queries.Rows; qi++ {
		q := queries.Row(qi)
		a := idx.Query(ctxA, q, Query{K: 10, L: 40}).Neighbors
		b := qidx.Query(ctxB, q, Query{K: 10, L: 40}).Neighbors
		ina := make(map[int32]bool, len(a))
		for _, n := range a {
			ina[n.ID] = true
		}
		for _, n := range b {
			total++
			if ina[n.ID] {
				agree++
			}
			// Reranked distances are exact: recompute directly.
			if want := vecmath.L2(q, base.Row(int(n.ID))); n.Dist != want {
				t.Fatalf("query %d id %d: emitted dist %g != exact %g", qi, n.ID, n.Dist, want)
			}
		}
	}
	if frac := float64(agree) / float64(total); frac < 0.97 {
		t.Fatalf("quantized/float agreement %.3f below 0.97", frac)
	}
}

// TestQuantizedNoRerankReportsApprox: the ablation entry point must emit
// code-space distances (scale-quantized, so typically not exact).
func TestQuantizedNoRerankReportsApprox(t *testing.T) {
	base := testBase(t, 500, 16, 6)
	idx := buildQuantTestNSG(t, base)
	if err := idx.EnableQuantization(nil); err != nil {
		t.Fatal(err)
	}
	ctx := NewSearchContext()
	res := idx.Query(ctx, base.Row(3), Query{K: 5, L: 20, NoRerank: true})
	if len(res.Neighbors) == 0 {
		t.Fatal("empty result")
	}
	if res.Neighbors[0].ID != 3 || res.Neighbors[0].Dist != 0 {
		t.Fatalf("self query: got id %d dist %g", res.Neighbors[0].ID, res.Neighbors[0].Dist)
	}
}

// TestQuantizedPersistByteIdentical: Write/ReadNSG must round-trip codes,
// scales, the permutation and the remap table byte-for-byte, and the loaded
// index must return byte-identical search results.
func TestQuantizedPersistByteIdentical(t *testing.T) {
	base := testBase(t, 600, 24, 7)
	idx := buildQuantTestNSG(t, base.Clone())
	idx.Relayout()
	if err := idx.EnableQuantization(nil); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := idx.Write(&buf); err != nil {
		t.Fatal(err)
	}
	// ReadNSG expects rows in public order.
	loaded, err := ReadNSG(bytes.NewReader(buf.Bytes()), idx.PublicBase())
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(loaded.Quant.Codes.Codes, idx.Quant.Codes.Codes) {
		t.Fatal("codes not byte-identical across persist")
	}
	for d := range idx.Quant.Q.Min {
		if loaded.Quant.Q.Min[d] != idx.Quant.Q.Min[d] || loaded.Quant.Q.Max[d] != idx.Quant.Q.Max[d] {
			t.Fatalf("quantizer bounds differ at dim %d", d)
		}
	}
	if loaded.Quant.Q.Scale() != idx.Quant.Q.Scale() {
		t.Fatal("scale differs across persist")
	}
	if len(loaded.PubIDs) != len(idx.PubIDs) {
		t.Fatal("remap table length differs")
	}
	for i := range idx.PubIDs {
		if loaded.PubIDs[i] != idx.PubIDs[i] {
			t.Fatalf("remap table differs at %d", i)
		}
	}
	// The permuted base must have been restored to internal order.
	for i := range idx.Base.Data {
		if loaded.Base.Data[i] != idx.Base.Data[i] {
			t.Fatal("internal base order not restored on load")
		}
	}

	ctxA, ctxB := NewSearchContext(), NewSearchContext()
	queries := testBase(t, 30, 24, 8)
	for qi := 0; qi < queries.Rows; qi++ {
		q := queries.Row(qi)
		a := idx.Query(ctxA, q, Query{K: 10, L: 40})
		b := loaded.Query(ctxB, q, Query{K: 10, L: 40})
		if a.Hops != b.Hops || len(a.Neighbors) != len(b.Neighbors) {
			t.Fatalf("query %d: shape mismatch after reload", qi)
		}
		for i := range a.Neighbors {
			if a.Neighbors[i] != b.Neighbors[i] {
				t.Fatalf("query %d rank %d: %v vs %v", qi, i, a.Neighbors[i], b.Neighbors[i])
			}
		}
	}
}

// TestVersionGateOldFilesLoad: a record written without quantization uses
// the original NSGF magic and must keep loading (the v2 sharded files on
// disk embed exactly these records).
func TestVersionGateOldFilesLoad(t *testing.T) {
	base := testBase(t, 300, 16, 9)
	idx := buildQuantTestNSG(t, base)
	var buf bytes.Buffer
	if err := idx.Write(&buf); err != nil {
		t.Fatal(err)
	}
	head := buf.Bytes()[:4]
	if got := uint32(head[0]) | uint32(head[1])<<8 | uint32(head[2])<<16 | uint32(head[3])<<24; got != nsgFileMagic {
		t.Fatalf("unquantized index wrote magic %#x, want legacy NSGF %#x", got, nsgFileMagic)
	}
	loaded, err := ReadNSG(bytes.NewReader(buf.Bytes()), base)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.IsQuantized() || loaded.PubIDs != nil {
		t.Fatal("legacy record loaded with quant/remap state")
	}
	ctx := NewSearchContext()
	if res := loaded.Query(ctx, base.Row(5), Query{K: 5, L: 20}); res.Neighbors[0].ID != 5 {
		t.Fatalf("legacy reload broken: self search returned %d", res.Neighbors[0].ID)
	}
}

// TestReadNSGRejectsUnknownFlags: a record carrying flag bits this reader
// does not know (i.e. sections it cannot consume) must be rejected at the
// header, not silently half-parsed. The retired int4 marker is one of them,
// beside the SQ8 flag or in its place (an int4 record from before int4 was
// removed).
func TestReadNSGRejectsUnknownFlags(t *testing.T) {
	base := testBase(t, 200, 8, 13)
	idx := buildQuantTestNSG(t, base)
	if err := idx.EnableQuantization(nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Write(&buf); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		flag func(uint8) uint8
	}{
		{"undefined bit", func(f uint8) uint8 { return f | 1<<7 }},
		{"int4 beside sq8", func(f uint8) uint8 { return f | nsgFlagQuant4 }},
		{"int4 in place of sq8", func(f uint8) uint8 { return f&^nsgFlagQuant | nsgFlagQuant4 }},
	} {
		blob := bytes.Clone(buf.Bytes())
		blob[12] = tc.flag(blob[12])
		if _, err := ReadNSG(bytes.NewReader(blob), base); err == nil {
			t.Fatalf("%s: ReadNSG accepted a record with unknown flags", tc.name)
		}
	}
}

// TestEnableQuantizationDimLimit: dimensions past the int32-accumulation
// limit must surface as an error through the error-returning API, not as a
// panic from quant.Train.
func TestEnableQuantizationDimLimit(t *testing.T) {
	dim := quant.MaxDim + 1
	base := vecmath.NewMatrix(16, dim)
	for i := range base.Data {
		base.Data[i] = float32(i % 7)
	}
	idx := buildQuantTestNSG(t, base)
	if err := idx.EnableQuantization(nil); err == nil {
		t.Fatalf("EnableQuantization accepted dimension %d > MaxDim %d", dim, quant.MaxDim)
	}
}

// TestQuantizedInsert: inserting into a relayouted quantized index must
// extend the codes and remap consistently and stay searchable.
func TestQuantizedInsert(t *testing.T) {
	base := testBase(t, 400, 16, 10)
	idx := buildQuantTestNSG(t, base)
	idx.Relayout()
	if err := idx.EnableQuantization(nil); err != nil {
		t.Fatal(err)
	}
	vec := make([]float32, 16)
	for d := range vec {
		vec[d] = 2.5
	}
	id, err := idx.Insert(vec, InsertParams{M: 12, L: 30})
	if err != nil {
		t.Fatal(err)
	}
	if int(id) != 400 {
		t.Fatalf("insert assigned id %d, want 400", id)
	}
	if idx.Quant.Codes.Rows != 401 || len(idx.PubIDs) != 401 {
		t.Fatalf("codes/remap not extended: %d rows, %d remap entries", idx.Quant.Codes.Rows, len(idx.PubIDs))
	}
	ctx := NewSearchContext()
	res := idx.Query(ctx, vec, Query{K: 1, L: 40})
	if res.Neighbors[0].ID != id || res.Neighbors[0].Dist != 0 {
		t.Fatalf("inserted vector not found: got id %d dist %g", res.Neighbors[0].ID, res.Neighbors[0].Dist)
	}
}

// TestSharedQuantizerAcrossIndexes: two indexes encoding with one trained
// quantizer must produce comparable distances (the sharded contract).
func TestSharedQuantizerAcrossIndexes(t *testing.T) {
	base := testBase(t, 600, 16, 11)
	shared := quant.Train(base)
	a := buildQuantTestNSG(t, base.Slice(0, 300).Clone())
	b := buildQuantTestNSG(t, base.Slice(300, 600).Clone())
	if err := a.EnableQuantization(&shared); err != nil {
		t.Fatal(err)
	}
	if err := b.EnableQuantization(&shared); err != nil {
		t.Fatal(err)
	}
	if a.Quant.Q.Scale() != b.Quant.Q.Scale() {
		t.Fatal("shared quantizer produced different scales")
	}
	// Dim mismatch must be rejected.
	wrong := quant.Train(testBase(t, 10, 8, 12))
	if err := a.EnableQuantization(&wrong); err == nil {
		t.Fatal("EnableQuantization accepted a mismatched quantizer")
	}
}

// TestQuantBoundNearTies builds the case the bound's slack exists for:
// integer rows on an exact SQ8 grid (ρ and ‖q − q̂‖ are 0), every squared
// distance near 4.7e7 where float32 steps by 4, and all of them within 2 of
// each other. The code distance rounds the exact sum once; the float32
// kernel rounds its partial sums several times, in an order that depends on
// where each value sits in the row. So rows whose code distance is a step
// above the k-th can still hold a top-k exact distance — only the slack
// keeps them in the rescored set. The rerank and the filtered scan must
// answer as with the bound off, and some query must need the slack.
func TestQuantBoundNearTies(t *testing.T) {
	const dim, n, k = 1024, 300, 10
	t.Cleanup(func() { quantBoundOff = false })
	lo, hi := make([]float32, dim), make([]float32, dim)
	for d := range hi {
		hi[d] = 255 // grid step exactly 1: integer rows encode without error
	}
	qz := quant.FromBounds(lo, hi)
	needed := 0
	for trial := int64(0); trial < 8; trial++ {
		rng := rand.New(rand.NewSource(72 + trial))
		seed := make([]float32, dim)
		var s0 int64
		for d := range seed {
			seed[d] = float32(180 + rng.Intn(70))
			s0 += int64(seed[d]) * int64(seed[d])
		}
		// Make the seed's squared norm 1 mod 4: it then rounds down and
		// the same sum + 2 rounds up, a float32 step apart.
		for s0%4 != 1 {
			s0 += 2*int64(seed[0]) + 1
			seed[0]++
		}
		base := vecmath.NewMatrix(n, dim)
		for i := 0; i < n; i++ {
			row := base.Row(i)
			for d, p := range rng.Perm(dim) {
				row[d] = seed[p]
			}
			// Shift one value up by 1 and one down by 1: the squared norm
			// moves by 2(a-b)+2 for values a, b, so b = a+2 gives -2 and
			// b = a gives +2. 5 rows go below the seed, half the rest above.
			var want float32 // b - a
			switch {
			case i < 5:
				want = 2
			case i%2 == 0:
				continue
			}
			for a := 0; a < dim; a++ {
				if b := (a + 1 + rng.Intn(dim-1)) % dim; row[b]-row[a] == want {
					row[a]++
					row[b]--
					break
				}
			}
		}
		s := &Snapshot{base: base, quant: &Quantized{Q: qz, Codes: qz.Encode(base)}}
		s.quant.measureRho(base)
		query := make([]float32, dim)
		ctx := NewSearchContext()
		ctx.qlevels = qz.PrepareInto(ctx.qlevels[:0], query)
		b, ok := s.quant.bound(query, ctx.qlevels)
		if !ok {
			t.Fatal("bound unavailable on an exact grid")
		}

		// The rerank over a pool holding every row, by code distance.
		pool := make([]vecmath.Neighbor, n)
		for i := range pool {
			pool[i] = vecmath.Neighbor{ID: int32(i), Dist: qz.L2(ctx.qlevels, s.quant.Codes, int32(i))}
		}
		sortNeighbors(ctx, pool)
		rerank := func(thr float64) []vecmath.Neighbor {
			ctx.out = append(ctx.out[:0], pool...)
			return append([]vecmath.Neighbor(nil), rerankPool(ctx, base, query, k, nil, nil, ctx.out, thr)...)
		}
		thr := rerankThreshold(b, pool, n, k)
		got, want := rerank(thr), rerank(math.Inf(1))
		dck := float64(pool[k-1].Dist)
		noSlack := math.Pow(math.Sqrt(dck)+2*b.eps, 2)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d rank %d: bounded rerank %v, full rerank %v", trial, i, got[i], want[i])
			}
			if dc := float64(qz.L2(ctx.qlevels, s.quant.Codes, want[i].ID)); dc > noSlack {
				needed++
			}
		}

		// The filtered scan over every row.
		all := make([]uint64, (n+63)/64)
		for i := 0; i < n; i++ {
			all[i>>6] |= 1 << (i & 63)
		}
		pf := passFilter{bits: all}
		scan := func(off bool) []vecmath.Neighbor {
			quantBoundOff = off
			defer func() { quantBoundOff = false }()
			return append([]vecmath.Neighbor(nil), scanFiltered(ctx, s, query, k, nil, nil, pf).Neighbors...)
		}
		got, want = scan(false), scan(true)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d rank %d: bounded scan %v, full scan %v", trial, i, got[i], want[i])
			}
		}
	}
	if needed == 0 {
		t.Fatal("no top-k row needed the slack: the construction no longer makes near-ties")
	}
	t.Logf("%d top-k rows lay above (sqrt(dc_k) + 2 eps)^2 and were kept by the slack", needed)
}

// TestRhoMeasuredEverywhere: ρ is the same whichever way the rows reached
// memory — encode, a stream Load, a verified OpenMapped, a PromoteToHeap of
// it — and matches an independent float64 measurement from above within
// 1e-9; a NoVerify open leaves it unknown, and an Insert far outside the
// trained range raises it.
func TestRhoMeasuredEverywhere(t *testing.T) {
	t.Run("sq8", func(t *testing.T) {
		base := testBase(t, 600, 37, 81)
		x := buildQuantTestNSG(t, base.Clone())
		x.Relayout()
		if err := x.EnableQuantization(nil); err != nil {
			t.Fatal(err)
		}
		// Independently: the largest distance from a row to its
		// reconstruction.
		var want float64
		for i := 0; i < x.Base.Rows; i++ {
			levels := x.Quant.rowLevels(nil, i)
			min, scale := x.Quant.grid()
			var s float64
			for d, v := range x.Base.Row(i) {
				e := float64(v) - (float64(min[d]) + scale*float64(levels[d]))
				s += e * e
			}
			want = max(want, math.Sqrt(s))
		}
		if !x.Quant.hasRho || x.Quant.rho < want || x.Quant.rho > want*(1+1e-9) {
			t.Fatalf("encode: rho %g (known %v), measured %g", x.Quant.rho, x.Quant.hasRho, want)
		}
		rho := x.Quant.rho

		var buf bytes.Buffer
		if err := x.Write(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadNSG(&buf, x.PublicBase())
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "rho.nsgm")
		if err := x.SaveMapped(path); err != nil {
			t.Fatal(err)
		}
		mapped, err := OpenMapped(path, MapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer mapped.Close()
		trusted, err := OpenMapped(path, MapOptions{NoVerify: true})
		if err != nil {
			t.Fatal(err)
		}
		defer trusted.Close()
		for name, q := range map[string]*Quantized{"Load": loaded.Quant, "OpenMapped": mapped.Quant} {
			if !q.hasRho || q.rho != rho {
				t.Fatalf("%s: rho %g (known %v), encode measured %g", name, q.rho, q.hasRho, rho)
			}
		}
		if trusted.Quant.hasRho {
			t.Fatal("NoVerify open claims a known rho")
		}
		if err := mapped.PromoteToHeap(); err != nil {
			t.Fatal(err)
		}
		if !mapped.Quant.hasRho || mapped.Quant.rho != rho {
			t.Fatalf("PromoteToHeap: rho %g (known %v), want %g", mapped.Quant.rho, mapped.Quant.hasRho, rho)
		}

		far := append([]float32(nil), base.Row(0)...)
		far[3] = 1000
		if _, err := x.Insert(far, InsertParams{}); err != nil {
			t.Fatal(err)
		}
		if x.Quant.rho < 900 {
			t.Fatalf("Insert of a row ~995 outside the grid left rho at %g", x.Quant.rho)
		}
	})
}
