package bench

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dpg"
	"repro/internal/efanna"
	"repro/internal/fanng"
	"repro/internal/hnsw"
	"repro/internal/knngraph"
	"repro/internal/vecmath"
)

// baselineGolden holds FNV-64a digests of every baseline graph and of the
// ids its searcher returns on a fixed corpus. The baselines' tables and
// sweeps are only comparable across changes while these stay fixed: a
// refactor that reorders one adjacency list or draws one extra random
// start changes a digest here.
var baselineGolden = map[string]uint64{
	"knn":           0x3a1458b5c67cf829,
	"naive":         0x5a3a233dda11bdcb,
	"naive.search":  0xc4b853470ea5fb24,
	"kgraph.search": 0x7d75aa264bfbbcf3,
	"fanng":         0x64598a89c8bc8f10,
	"fanng.search":  0x4e5f2bf7076b8b5f,
	"dpg":           0xa4eeda3517a50afe,
	"dpg.search":    0xc822e2497b919265,
	"hnsw":          0x225a6be1897cfbbe,
	"hnsw.search":   0x140e9a9d071e82a6,
	"efanna.search": 0xf1569c7a763c81e1,
}

func hashInt32s(h hash.Hash64, ids []int32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(len(ids)))
	h.Write(b[:])
	for _, id := range ids {
		binary.LittleEndian.PutUint32(b[:], uint32(id))
		h.Write(b[:])
	}
}

func hashAdj(adj [][]int32) uint64 {
	h := fnv.New64a()
	for _, row := range adj {
		hashInt32s(h, row)
	}
	return h.Sum64()
}

// hashSearches runs 20 queries through search in order, so a searcher that
// draws its random starts from a shared stream is hashed along that stream.
func hashSearches(queries vecmath.Matrix, search func(q []float32, k, l int, c *vecmath.Counter) []vecmath.Neighbor) uint64 {
	h := fnv.New64a()
	for qi := 0; qi < 20; qi++ {
		res := search(queries.Row(qi), 10, 10, nil)
		ids := make([]int32, len(res))
		for i, n := range res {
			ids[i] = n.ID
		}
		hashInt32s(h, ids)
	}
	return h.Sum64()
}

func TestBaselineGraphsUnchanged(t *testing.T) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 700, Queries: 20, GTK: 10, Dim: 24, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	knn, err := knngraph.BuildExact(ds.Base, 30)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]uint64{"knn": hashAdj(knn.Adj)}

	naive, err := core.PruneKNN(knn, ds.Base, 30, 15)
	if err != nil {
		t.Fatal(err)
	}
	got["naive"] = hashAdj(naive.Adj)
	naiveSearch := &core.RandomStart{Graph: naive, Base: ds.Base, Starts: 1, Rng: rand.New(rand.NewSource(1))}
	got["naive.search"] = hashSearches(ds.Queries, naiveSearch.Search)

	kg := &core.RandomStart{Graph: knn, Base: ds.Base, Starts: 3, Rng: rand.New(rand.NewSource(1))}
	got["kgraph.search"] = hashSearches(ds.Queries, kg.Search)

	fg, err := fanng.Build(knn, ds.Base, fanng.Params{CandidateK: 30, MaxDegree: 25, TraversePasses: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got["fanng"] = hashAdj(fg.Graph.Adj)
	got["fanng.search"] = hashSearches(ds.Queries, fg.Search)

	dg, err := dpg.Build(sliceKNN(knn, 20), ds.Base, dpg.Params{Keep: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got["dpg"] = hashAdj(dg.Graph.Adj)
	got["dpg.search"] = hashSearches(ds.Queries, dg.Search)

	hw, err := hnsw.Build(ds.Base, hnsw.Params{M: 8, EfConstruction: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var layers [][]int32
	for l := 0; l < hw.Layers(); l++ {
		layers = append(layers, []int32{-1})
		layers = append(layers, hw.Layer(l).Adj...)
	}
	got["hnsw"] = hashAdj(layers)
	got["hnsw.search"] = hashSearches(ds.Queries, hw.Search)

	forest, err := efanna.BuildForest(ds.Base, efanna.DefaultForestParams())
	if err != nil {
		t.Fatal(err)
	}
	ef, err := efanna.New(forest, knn, ds.Base, 64)
	if err != nil {
		t.Fatal(err)
	}
	got["efanna.search"] = hashSearches(ds.Queries, ef.Search)

	for name, sum := range got {
		want, ok := baselineGolden[name]
		if !ok || sum != want {
			t.Errorf("%s digest = %#x, want %#x", name, sum, want)
		}
	}
	for name := range baselineGolden {
		if _, ok := got[name]; !ok {
			t.Errorf("golden digest %s not computed", name)
		}
	}
}
