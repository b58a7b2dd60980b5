package core

import (
	"bytes"
	"math/rand"
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
// header, not silently half-parsed.
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
	blob := buf.Bytes()
	blob[12] |= 1 << 2 // an undefined flag bit
	if _, err := ReadNSG(bytes.NewReader(blob), base); err == nil {
		t.Fatal("ReadNSG accepted a record with unknown flags")
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
