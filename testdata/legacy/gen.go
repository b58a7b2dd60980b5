//go:build ignore

// Command gen wrote the fixtures in this directory, in layouts no writer
// produces any more: one_{f32,sq8}.nsgm, an Index's SaveMapped (a
// top-level NSGM record) with a metadata store; three.nsms, a 3-shard SQ8
// ShardedIndex's SaveMapped (a version-1 container); and queries.fvecs.
// Run it from the repository root of commit f02bd49, the last tree whose
// Index wrote NSGM files:
//
//	go run testdata/legacy/gen.go
//
// There it also writes each index's Save, the NSGB and NSGD stream files,
// which no build after commit ad169cf reads and this directory no longer
// keeps. It prints the digest of each writing index's answers, which
// legacyFixtures in compat_test.go records (see legacyAnswers there).
package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"log"
	"math"

	nsg "repro"
	"repro/internal/dataset"
)

type index interface {
	Save(string) error
	SaveMapped(string) error
	CompileFilter(nsg.Predicate) (*nsg.Filter, error)
	SearchWithPool([]float32, int, int) ([]int32, []float32)
	SearchFilteredWithPool([]float32, int, int, *nsg.Filter) ([]int32, []float32)
}

func main() {
	ds, err := dataset.SIFTLike(dataset.Config{N: 240, Queries: 8, GTK: 1, Dim: 16, Seed: 5})
	check(err)
	check(dataset.SaveFvecsFile("testdata/legacy/queries.fvecs", ds.Queries))
	cats := make([]string, 240)
	for i := range cats {
		cats[i] = fmt.Sprint("c", i*7%10)
	}
	opts := nsg.Options{GraphK: 10, BuildL: 30, MaxDegree: 12, SearchL: 40, ExactKNN: true, Seed: 5}
	for name, q := range map[string]nsg.QuantMode{"one_f32": nsg.QuantNone, "one_sq8": nsg.QuantSQ8} {
		opts.Quantize = q
		x, err := nsg.BuildFromFlat(append([]float32(nil), ds.Base.Data...), 16, opts)
		check(err)
		m := nsg.NewMetadata(240)
		check(m.AddEnum("category", cats))
		check(x.SetMetadata(m))
		write(x, ds, name+".nsgb", name+".nsgm", true)
	}
	opts.Quantize = nsg.QuantSQ8
	x, err := nsg.BuildShardedFromFlat(append([]float32(nil), ds.Base.Data...), 16, nsg.ShardedOptions{Shards: 3, Shard: opts})
	check(err)
	write(x, ds, "three.nsgd", "three.nsms", false)
}

// write saves x under both names and prints the FNV-64a digest of its
// answers to every query at k = 10, l = 40, plain and (when filtered)
// under Eq("category", "c3"): each answer's length, then its ids and
// distance bits, little-endian.
func write(x index, ds dataset.Dataset, stream, mapped string, filtered bool) {
	check(x.Save("testdata/legacy/" + stream))
	check(x.SaveMapped("testdata/legacy/" + mapped))
	var f *nsg.Filter
	if filtered {
		var err error
		f, err = x.CompileFilter(nsg.Eq("category", "c3"))
		check(err)
	}
	h := fnv.New64a()
	put := func(ids []int32, dists []float32) {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(ids)))
		for i := range ids {
			b = binary.LittleEndian.AppendUint32(b, uint32(ids[i]))
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(dists[i]))
		}
		h.Write(b)
	}
	for i := 0; i < ds.Queries.Rows; i++ {
		put(x.SearchWithPool(ds.Queries.Row(i), 10, 40))
		if f != nil {
			put(x.SearchFilteredWithPool(ds.Queries.Row(i), 10, 40, f))
		}
	}
	fmt.Printf("%s, %s: %#016x\n", stream, mapped, h.Sum64())
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
