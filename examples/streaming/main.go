// Streaming: incremental index maintenance — the paper's Section 5 future
// work ("It's also possible for NSG to enable incremental indexing"). An
// index absorbs inserts while serving queries concurrently (the snapshot +
// delta-buffer path every mutable index writes through), tombstones
// deletions, and compacts once the tombstone fraction grows.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"repro"
)

func main() {
	const dim = 32
	newVecFrom := func(rng *rand.Rand) []float32 {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32()
		}
		return v
	}
	rng := rand.New(rand.NewSource(21))
	newVec := func() []float32 { return newVecFrom(rng) }

	// Bootstrap with a small batch build.
	initial := make([][]float32, 2000)
	for i := range initial {
		initial[i] = newVec()
	}
	index, err := nsg.Build(initial, nsg.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bootstrapped with %d vectors\n", index.Len())

	// Stream: Add is non-blocking and safe to run concurrently with
	// searches — readers keep hitting the published snapshot (plus a
	// brute-force-scanned delta of the newest points) while a background
	// maintainer folds inserts into the graph. EnableLiveUpdates only tunes
	// how often it publishes.
	if err := index.EnableLiveUpdates(nsg.LiveOptions{PublishInterval: 10 * time.Millisecond}); err != nil {
		log.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // a concurrent reader
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if ids, _ := index.Search(newVecFrom(rand.New(rand.NewSource(int64(i)))), 3); len(ids) == 0 {
				log.Fatal("empty result under live serving")
			}
		}
	}()
	for batch := 0; batch < 5; batch++ {
		for i := 0; i < 400; i++ {
			if _, err := index.Add(newVec()); err != nil {
				log.Fatal(err)
			}
		}
		q := newVec()
		ids, dists := index.Search(q, 3)
		fmt.Printf("after batch %d (n=%d): 3-NN of a fresh query = %v (d=%.3f..)\n",
			batch+1, index.Len(), ids, dists[0])
	}
	wg.Wait()
	index.Flush() // fold the tail of the stream into the snapshot
	st := index.MaintenanceStats()
	fmt.Printf("maintainer published %d snapshots, drained %d inserts, %d pending\n",
		st.Publishes, st.Drained, st.Pending)
	// Close stops the maintainer; the Deletes and Compact below need none.
	index.Close()

	// Deletions: retire a slice of old vectors.
	for id := int32(0); id < 500; id++ {
		if err := index.Delete(id); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("tombstoned %d vectors; queries skip them immediately\n", index.DeletedCount())
	ids, _ := index.Search(initial[3], 3)
	for _, id := range ids {
		if id < 500 {
			log.Fatalf("deleted id %d leaked into results", id)
		}
	}

	// Compaction: rebuild without the tombstones once they accumulate.
	remap, err := index.Compact()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compacted to %d vectors (remap[600] = %d)\n", index.Len(), remap[600])

	// The compacted index serves as before.
	ids, dists := index.Search(newVec(), 5)
	fmt.Printf("post-compaction 5-NN: %v (nearest at %.3f)\n", ids, dists[0])
}
