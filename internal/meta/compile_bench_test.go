package meta

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkCompile times one leaf pass of the bitmap compiler per predicate
// form the serving tier compiles per request — an enum Eq (10% of rows
// pass), an int64 Range (0.5%), an int64 In and an enum In — at the
// repository benchmark's 8 000 rows and at 1 M rows, into a reused bitmap.
// "dispatch" is what callers get (the AVX2 kernels unless NSG_NO_AVX2 or
// the CPU says otherwise); "scalar" is the same Compile with the scalar
// loops whatever the CPU. In has no kernel, so its two lines time the same
// loop.
func BenchmarkCompile(b *testing.B) {
	for _, rows := range []int{8000, 1 << 20} {
		rng := rand.New(rand.NewSource(11))
		s := New(rows)
		tenants := make([]int64, rows)
		cats := make([]string, rows)
		for i := range tenants {
			tenants[i] = int64(rng.Intn(1000))
			cats[i] = fmt.Sprintf("cat%d", rng.Intn(10))
		}
		if err := s.AddInt64("tenant", tenants); err != nil {
			b.Fatal(err)
		}
		if err := s.AddEnum("category", cats); err != nil {
			b.Fatal(err)
		}
		// The operand moves every iteration, as it does between requests: a
		// fixed one lets the branch predictor learn the column and flatters
		// any loop that branches on a row's value.
		preds := []struct {
			name string
			p    func(i int) Predicate
		}{
			{"EqEnum", func(i int) Predicate { return Eq("category", cats[i%rows]) }},
			{"RangeInt64", func(i int) Predicate { lo := tenants[i%rows]; return Range("tenant", lo, lo+4) }},
			{"InInt64", func(i int) Predicate {
				return In("tenant", tenants[i%rows], tenants[(i+1)%rows], tenants[(i+2)%rows], int64(-1))
			}},
			{"InEnum", func(i int) Predicate { return In("category", cats[i%rows], cats[(i+1)%rows], "nosuch") }},
		}
		bits := make([]uint64, BitsLen(rows))
		for _, tc := range preds {
			for _, k := range []struct {
				name string
				simd bool
			}{{"dispatch", avx2}, {"scalar", false}} {
				b.Run(fmt.Sprintf("%s/rows=%d/%s", tc.name, rows, k.name), func(b *testing.B) {
					defer func(was bool) { avx2 = was }(avx2)
					avx2 = k.simd
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := s.Compile(tc.p(i), bits); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
				})
			}
		}
	}
}
