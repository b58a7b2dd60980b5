package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knngraph"
	"repro/internal/vecmath"
)

// searchGolden holds FNV-64a digests of what the NSG's own search paths
// return on two fixed corpora: every result id and distance bit, the hop
// count and the Counter's evaluations, query after query. A change to the
// float kernel's summation order, the visited staging or the pool's insert
// and reject rules that moves one bit, one entry or one hop moves a digest.
// The graph and insert digests pin the MRNG prune: Algorithm 2's selection
// and reverse-edge re-prunes, then Insert's own prune and re-prunes.
// The SIFT-like corpus holds integers whose partial sums are exact in any
// order; the DEEP-like one is real-valued, so only it pins the order the
// kernel adds in. Both dimensions leave a tail below the 8-float block.
var searchGolden = map[string]uint64{
	"sift/graph":    0xbf7119f3585c7364,
	"sift/plain":    0x8307ffd59e7c8de4,
	"sift/collect":  0x80c7d57510eff248,
	"sift/filtered": 0x478aae2f711cbdf7,
	"sift/sq8":      0x486947266fc65fdd,
	"sift/delta":    0x08cd80c26018c7cd,
	"sift/insert":   0xdbd2526e4334b5e1,
	"deep/graph":    0x6b3d387147c4ac1c,
	"deep/plain":    0x25688901e74bdcc4,
	"deep/collect":  0x42aeb0f107fc4f09,
	"deep/filtered": 0xc698598cadb427e6,
	"deep/sq8":      0xb9250453a9476ef5,
	"deep/delta":    0xa592577f4f639ba5,
	"deep/insert":   0x87738ebe9c440b46,
}

type streamHash struct{ h hash.Hash64 }

func (s streamHash) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	s.h.Write(b[:])
}

func (s streamHash) neighbors(nbs []vecmath.Neighbor) {
	s.u32(uint32(len(nbs)))
	for _, nb := range nbs {
		s.u32(uint32(nb.ID))
		s.u32(math.Float32bits(nb.Dist))
	}
}

// adjacency hashes a graph's out-lists in node order.
func (s streamHash) adjacency(adj [][]int32) {
	for _, row := range adj {
		s.u32(uint32(len(row)))
		for _, id := range row {
			s.u32(uint32(id))
		}
	}
}

// result hashes one search: its neighbors, hops and evaluations.
func (s streamHash) result(res SearchResult, c *vecmath.Counter) {
	s.neighbors(res.Neighbors)
	s.u32(uint32(res.Hops))
	s.u32(uint32(c.Count()))
}

func TestSearchStreamsGolden(t *testing.T) {
	const n, pending, k, l = 1200, 40, 10, 40
	cfg := dataset.Config{N: n + pending, Queries: 25, GTK: 1, Seed: 5}
	sift, err := dataset.SIFTLike(withDim(cfg, 44))
	if err != nil {
		t.Fatal(err)
	}
	deep, err := dataset.DEEPLike(withDim(cfg, 37))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]uint64{}
	for _, c := range []struct {
		name string
		ds   dataset.Dataset
	}{{"sift", sift}, {"deep", deep}} {
		for path, sum := range searchStreams(t, c.ds.Base, c.ds.Queries, n, k, l) {
			got[c.name+"/"+path] = sum
		}
	}
	for name, sum := range got {
		if want, ok := searchGolden[name]; !ok || sum != want {
			t.Errorf("%s digest = %#x, want %#x", name, sum, want)
		}
	}
	for name := range searchGolden {
		if _, ok := got[name]; !ok {
			t.Errorf("golden digest %s not computed", name)
		}
	}
}

func withDim(c dataset.Config, dim int) dataset.Config {
	c.Dim = dim
	return c
}

// searchStreams builds an NSG over the first n rows of all (from its exact
// kNN graph), keeps the rest as pending inserts, and digests each search
// path over every query.
func searchStreams(t *testing.T, all, queries vecmath.Matrix, n, k, l int) map[string]uint64 {
	t.Helper()
	base := all.Slice(0, n).Clone()
	knn, err := knngraph.BuildExact(base, 20)
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := NSGBuild(knn, base, BuildParams{L: 40, M: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	qidx, _, err := NSGBuild(knn, base, BuildParams{L: 40, M: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := qidx.EnableQuantization(nil); err != nil {
		t.Fatal(err)
	}

	sums := map[string]streamHash{}
	for _, p := range []string{"graph", "plain", "collect", "filtered", "sq8", "delta", "insert"} {
		sums[p] = streamHash{fnv.New64a()}
	}
	sums["graph"].adjacency(idx.flat.ToGraph().Adj)

	// Every remaining row pending, as one region.
	rest := all.Slice(n, all.Rows).Clone()
	delta := &Delta{Vecs: rest}
	for j := 0; j < rest.Rows; j++ {
		delta.IDs = append(delta.IDs, int32(n+j))
		delta.Seq = append(delta.Seq, int32(j))
	}
	// Two rows in three pass: far above the scan plan's crossover, so the
	// filtered query runs the two-pool walk.
	flt := makeBits(n, func(id int32) bool { return id%3 != 0 })

	ctx := NewSearchContext()
	flat := idx.FlatView()
	starts := []int32{idx.Navigating}
	var collected []vecmath.Neighbor
	for qi := 0; qi < queries.Rows; qi++ {
		q := queries.Row(qi)
		var c vecmath.Counter
		sums["plain"].result(SearchOnGraphCtx(ctx, flat, base, q, starts, k, l, &c, nil), &c)

		c.Reset()
		collected = collected[:0]
		res := SearchOnGraphCtx(ctx, flat, base, q, starts, k, l, &c, &collected)
		sums["collect"].result(res, &c)
		sums["collect"].neighbors(collected)

		c.Reset()
		res = idx.Query(ctx, q, Query{K: k, L: l, Filter: flt, Counter: &c})
		if res.Hops == 0 {
			t.Fatalf("query %d: filtered search took the scan plan", qi)
		}
		sums["filtered"].result(res, &c)

		c.Reset()
		sums["sq8"].result(qidx.Query(ctx, q, Query{K: k, L: l, Counter: &c}), &c)

		c.Reset()
		sums["delta"].result(idx.Query(ctx, q, Query{K: k, L: l, Delta: delta, Counter: &c}), &c)
	}
	// The pending rows through Insert one by one: its own prune and the
	// reverse-edge re-prunes the live maintainer runs.
	for j := 0; j < rest.Rows; j++ {
		if _, err := idx.Insert(rest.Row(j), InsertParams{}); err != nil {
			t.Fatal(err)
		}
	}
	sums["insert"].adjacency(idx.FlatView().ToGraph().Adj)
	out := map[string]uint64{}
	for p, s := range sums {
		out[p] = s.h.Sum64()
	}
	return out
}
