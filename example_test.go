package nsg_test

// Runnable godoc examples for the public API: build/search, persistence,
// and the sharded serving subsystem. Each uses a small deterministic
// dataset (seeded generator + exact kNN builder) so the printed output is
// stable and `go test` verifies it.

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"slices"

	"repro"
)

// exampleVectors generates n deterministic dim-dimensional vectors.
func exampleVectors(n, dim int) [][]float32 {
	rng := rand.New(rand.NewSource(42))
	vecs := make([][]float32, n)
	for i := range vecs {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32()
		}
		vecs[i] = v
	}
	return vecs
}

// ExampleBuild indexes a small dataset and finds the nearest neighbors of
// one of its own points: the point itself comes back first at distance 0.
func ExampleBuild() {
	vectors := exampleVectors(400, 16)
	opts := nsg.DefaultOptions()
	opts.ExactKNN = true // deterministic builds for small data
	index, err := nsg.Build(vectors, opts)
	if err != nil {
		log.Fatal(err)
	}

	ids, dists := index.Search(vectors[42], 3)
	fmt.Println("nearest:", ids[0], "dist:", dists[0])
	fmt.Println("neighbors returned:", len(ids))
	// Output:
	// nearest: 42 dist: 0
	// neighbors returned: 3
}

// ExampleIndex_Save persists an index (vectors included) and reopens it;
// the loaded index returns identical results.
func ExampleIndex_Save() {
	vectors := exampleVectors(400, 16)
	opts := nsg.DefaultOptions()
	opts.ExactKNN = true
	index, err := nsg.Build(vectors, opts)
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "nsg-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "index.nsg")
	if err := index.Save(path); err != nil {
		log.Fatal(err)
	}

	loaded, err := nsg.Load(path)
	if err != nil {
		log.Fatal(err)
	}
	a, _ := index.SearchWithPool(vectors[7], 5, 60)
	b, _ := loaded.SearchWithPool(vectors[7], 5, 60)
	same := len(a) == len(b)
	for i := range a {
		same = same && a[i] == b[i]
	}
	fmt.Println("loaded", loaded.Len(), "vectors; identical results:", same)
	// Output:
	// loaded 400 vectors; identical results: true
}

// ExampleBuild_quantized builds an index on the SQ8 serving path: vectors
// are compressed to one byte per dimension and the graph is relayouted into
// BFS cache order, so each search hop gathers 4x fewer bytes. Results are
// reranked with exact float32 distances, so the query's own point still
// comes back at distance exactly 0.
func ExampleBuild_quantized() {
	vectors := exampleVectors(400, 16)
	opts := nsg.DefaultOptions()
	opts.ExactKNN = true // deterministic builds for small data
	opts.Quantize = nsg.QuantSQ8
	index, err := nsg.Build(vectors, opts)
	if err != nil {
		log.Fatal(err)
	}

	ids, dists := index.Search(vectors[42], 3)
	fmt.Println("nearest:", ids[0], "dist:", dists[0])
	fmt.Println("quantized:", index.Quantized())
	// Output:
	// nearest: 42 dist: 0
	// quantized: true
}

// ExampleOptions_shards partitions the data into shards, builds one NSG
// per shard in parallel, and serves queries by fanning out to every shard —
// the paper's DEEP100M / Taobao deployment pattern in one process.
// SearchWith reports the merged work and writes into reused buffers.
func ExampleOptions_shards() {
	vectors := exampleVectors(600, 16)
	opts := nsg.DefaultOptions()
	opts.Shards, opts.ExactKNN = 3, true
	index, err := nsg.Build(vectors, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer index.Close()

	ids, dists := index.Search(vectors[7], 3)
	fmt.Println("nearest:", ids[0], "dist:", dists[0])

	var stats nsg.SearchStats
	ids, dists = index.SearchWith(vectors[7], 3, nsg.SearchParams{L: 60, Stats: &stats, IDs: ids, Dists: dists})
	fmt.Println("searched", index.Shards(), "shards; merged hops > 0:", stats.Hops > 0)
	// Output:
	// nearest: 7 dist: 0
	// searched 3 shards; merged hops > 0: true
}

// ExampleOptions_metric serves maximum inner product search: the index
// answers with dot products, largest first, and prefers the long aligned
// vector that the nearest by L2 distance would not be.
func ExampleOptions_metric() {
	vectors := [][]float32{{1, 0}, {10, 0}, {0, 1}, {-5, 0}}
	opts := nsg.DefaultOptions()
	opts.Metric, opts.ExactKNN = nsg.InnerProduct, true
	index, err := nsg.Build(vectors, opts)
	if err != nil {
		log.Fatal(err)
	}
	ids, scores := index.Search([]float32{1, 0}, 2)
	fmt.Println("best:", ids[0], "dot:", scores[0], "then:", ids[1], "dot:", scores[1])
	// Output:
	// best: 1 dot: 10 then: 0 dot: 1
}

// ExampleIndex_EnableLiveUpdates sets the maintainer's cadence on an index
// that, like every mutable index, serves Add concurrently with Search: the
// added point is searchable immediately (served by the delta scan), and
// Flush waits for the background maintainer to fold it into the published
// graph snapshot.
func ExampleIndex_EnableLiveUpdates() {
	vectors := exampleVectors(400, 16)
	opts := nsg.DefaultOptions()
	opts.ExactKNN = true
	index, err := nsg.Build(vectors, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := index.EnableLiveUpdates(nsg.LiveOptions{}); err != nil {
		log.Fatal(err)
	}
	defer index.Close()

	id, err := index.Add(vectors[123]) // a duplicate of an indexed point
	if err != nil {
		log.Fatal(err)
	}
	ids, dists := index.Search(vectors[123], 2) // searchable before any drain
	fmt.Printf("id=%d nearest=[%d %d] d0=%.0f\n", id, ids[0], ids[1], dists[0])

	index.Flush() // wait until the maintainer has drained the delta
	st := index.MaintenanceStats()
	fmt.Printf("pending=%d drained=%d snapshot=%d\n", st.Pending, st.Drained, st.SnapshotRows)
	// Output:
	// id=400 nearest=[123 400] d0=0
	// pending=0 drained=1 snapshot=401
}

// ExampleOpenMapped persists an index and serves it straight from the
// file: OpenMapped parses a fixed-size header and points the search
// kernels at the mapped slabs, so restart cost is O(file open) rather than
// O(decode), and results are byte-identical to the heap index. The mapped
// index takes writes: the first Add copies what it grows off the mapping,
// so the file stays as it was until a Save, which may write over it.
func ExampleOpenMapped() {
	vectors := exampleVectors(400, 16)
	opts := nsg.DefaultOptions()
	opts.ExactKNN = true
	index, err := nsg.Build(vectors, opts)
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "nsg-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "index.nsms")
	if err := index.Save(path); err != nil {
		log.Fatal(err)
	}

	mapped, err := nsg.OpenMapped(path, nsg.MapOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer mapped.Close()

	a, _ := index.SearchWithPool(vectors[7], 5, 60)
	b, _ := mapped.SearchWithPool(vectors[7], 5, 60)
	fmt.Println("identical results:", slices.Equal(a, b))

	// Add works on the open file; the new point finds itself at once.
	added := append([]float32(nil), vectors[0]...)
	added[0] += 0.5
	id, err := mapped.Add(added)
	if err != nil {
		log.Fatal(err)
	}
	nearest, _ := mapped.SearchWithPool(added, 1, 60)
	fmt.Println("added:", id, "found:", nearest[0] == id, "vectors:", mapped.Len())

	// Saving over the open file keeps the point for the next open.
	if err := mapped.Save(path); err != nil {
		log.Fatal(err)
	}
	reopened, err := nsg.Load(path)
	if err != nil {
		log.Fatal(err)
	}
	defer reopened.Close()
	fmt.Println("reopened:", reopened.Len(), "vectors")
	// Output:
	// identical results: true
	// added: 400 found: true vectors: 401
	// reopened: 401 vectors
}

// ExampleIndex_filteredSearch attaches typed metadata to an index and
// searches under a predicate. Non-passing points are skipped during the
// traversal itself — they never occupy candidate-pool slots — so recall
// holds even at low selectivity where post-filtering would starve the
// result set.
func ExampleIndex_filteredSearch() {
	vectors := exampleVectors(400, 16)
	opts := nsg.DefaultOptions()
	opts.ExactKNN = true
	index, err := nsg.Build(vectors, opts)
	if err != nil {
		log.Fatal(err)
	}

	// One metadata row per vector, keyed by id: an int64 price column
	// and a dictionary-encoded category column.
	m := nsg.NewMetadata(len(vectors))
	prices := make([]int64, len(vectors))
	categories := make([]string, len(vectors))
	for i := range vectors {
		prices[i] = int64(i)
		if i%2 == 0 {
			categories[i] = "shoes"
		} else {
			categories[i] = "hats"
		}
	}
	if err := m.AddInt64("price", prices); err != nil {
		log.Fatal(err)
	}
	if err := m.AddEnum("category", categories); err != nil {
		log.Fatal(err)
	}
	if err := index.SetMetadata(m); err != nil {
		log.Fatal(err)
	}

	// Compile once, search many times: cheap shoes only.
	filter, err := index.CompileFilter(nsg.And(
		nsg.Eq("category", "shoes"),
		nsg.Range("price", 0, 99),
	))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("passing rows:", filter.Count(), "of", len(vectors))

	// Vector 42 is an even-id, sub-100-price point, so it passes its
	// own filter and comes back first at distance 0.
	ids, dists := index.SearchWith(vectors[42], 3, nsg.SearchParams{Filter: filter})
	fmt.Println("nearest passing:", ids[0], "dist:", dists[0])
	allPass := true
	for _, id := range ids {
		if id%2 != 0 || id > 99 {
			allPass = false
		}
	}
	fmt.Println("returned:", len(ids), "all pass:", allPass)
	// Output:
	// passing rows: 50 of 400
	// nearest passing: 42 dist: 0
	// returned: 3 all pass: true
}
