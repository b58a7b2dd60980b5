package core

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knngraph"
)

// TestRadixSortKeysMatchesSlicesSort checks radixSortKeys against
// slices.Sort on random words, all-equal words, words that differ in one
// byte position only, lengths around the small-n cutoff, and 0 or 1 keys.
func TestRadixSortKeysMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(name string, keys []uint64) {
		t.Helper()
		want := slices.Clone(keys)
		slices.Sort(want)
		sorted, spare := radixSortKeys(keys, make([]uint64, len(keys)))
		if !slices.Equal(sorted, want) {
			t.Fatalf("%s (n=%d): radix order differs from slices.Sort", name, len(keys))
		}
		if len(spare) != len(keys) {
			t.Fatalf("%s: spare has len %d, want %d", name, len(spare), len(keys))
		}
	}
	for _, n := range []int{0, 1, 2, radixMinKeys - 1, radixMinKeys, radixMinKeys + 1, 600, 5000} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		check("random", keys)
		// Realistic packed keys: non-negative float bits over small ids.
		for i := range keys {
			keys[i] = packKey(int32(rng.Intn(8000)), rng.Float32()*1e4)
		}
		check("packed", keys)
		for i := range keys {
			keys[i] = 0xdeadbeefcafef00d
		}
		check("equal", keys)
	}
	for b := 0; b < 8; b++ {
		for _, n := range []int{radixMinKeys, 777} {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = 0x0123456789abcdef&^(0xff<<(8*b)) | uint64(rng.Intn(256))<<(8*b)
			}
			check("one byte varies", keys)
		}
	}
}

// TestNSGBuildScheduleIndependent builds from one fixed kNN graph on one
// and on four Ps: the worker pool's chunking and the radix sort must leave
// the navigating node and every adjacency row unchanged.
func TestNSGBuildScheduleIndependent(t *testing.T) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 1500, Queries: 1, GTK: 1, Dim: 24, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	knn, err := knngraph.BuildExact(ds.Base, 20)
	if err != nil {
		t.Fatal(err)
	}
	build := func(procs int) *NSG {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		x, _, err := NSGBuild(knn, ds.Base, BuildParams{L: 40, M: 16, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	a, b := build(1), build(4)
	if a.Navigating != b.Navigating {
		t.Fatalf("navigating node %d at GOMAXPROCS=1, %d at 4", a.Navigating, b.Navigating)
	}
	for i := range int32(a.flat.N()) {
		if !slices.Equal(a.flat.Neighbors(i), b.flat.Neighbors(i)) {
			t.Fatalf("node %d: adjacency %v at GOMAXPROCS=1, %v at 4", i, a.flat.Neighbors(i), b.flat.Neighbors(i))
		}
	}
}
