package quant

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/vecmath"
)

// BenchmarkQuantKernel compares one SQ8 code distance against one float32
// distance at serving dimensions, plus the portable scalar fallback — the
// per-distance view of the 4x byte shrink.
func BenchmarkQuantKernel(b *testing.B) {
	for _, dim := range []int{32, 128, 960} {
		rng := rand.New(rand.NewSource(1))
		m := vecmath.NewMatrix(1024, dim)
		for i := range m.Data {
			m.Data[i] = rng.Float32() * 100
		}
		q := Train(m)
		c := q.Encode(m)
		levels := q.PrepareInto(nil, m.Row(0))
		b.Run(fmt.Sprintf("dim=%d/float32", dim), func(b *testing.B) {
			var s float32
			for i := 0; i < b.N; i++ {
				s += vecmath.L2(m.Row(0), m.Row(i&1023))
			}
			_ = s
		})
		b.Run(fmt.Sprintf("dim=%d/sq8", dim), func(b *testing.B) {
			var s int32
			for i := 0; i < b.N; i++ {
				s += L2Levels(levels, c.Row(i&1023))
			}
			_ = s
		})
		b.Run(fmt.Sprintf("dim=%d/sq8-generic", dim), func(b *testing.B) {
			var s int32
			for i := 0; i < b.N; i++ {
				s += l2LevelsGeneric(levels, c.Row(i&1023))
			}
			_ = s
		})
	}
}

// BenchmarkQuantL2ToRows: one gather per id list over random rows of a
// 30 000 x 128 code matrix, at the length a hop of Algorithm 1 stages (16)
// and the length a filter's exact scan passes (800, far beyond the prefetch
// window) — the SQ8 twin of vecmath's BenchmarkL2ToRows. ns/op is
// per row. "dispatch" is what callers get (the prefetching AVX2 gather
// unless NSG_NO_AVX2 or the CPU says otherwise); "scalar" is the per-row
// scalar kernel whatever the CPU.
func BenchmarkQuantL2ToRows(b *testing.B) {
	const dim, rows = 128, 30000
	rng := rand.New(rand.NewSource(45))
	m := vecmath.NewMatrix(rows, dim)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
	}
	query := m.Row(0)
	ids := make([]int32, 1<<16)
	for i := range ids {
		ids[i] = int32(rng.Intn(rows))
	}
	q := Train(m)
	c := q.Encode(m)
	levels := q.PrepareInto(nil, query)
	type toRows func(ids []int32, out []float32)
	dispatch := func(ids []int32, out []float32) { q.L2ToRows(c, levels, ids, out) }
	scalar := func(ids []int32, out []float32) {
		for i, id := range ids {
			out[i] = float32(l2LevelsGeneric(levels, c.Row(int(id)))) * q.distMul
		}
	}
	for _, n := range []int{16, 800} {
		for _, k := range []struct {
			name string
			fn   toRows
		}{{"dispatch", dispatch}, {"scalar", scalar}} {
			b.Run(fmt.Sprintf("sq8/ids=%d/%s", n, k.name), func(b *testing.B) {
				out := make([]float32, n)
				b.ReportAllocs()
				lists := b.N/n + 1
				b.ResetTimer()
				for i := 0; i < lists; i++ {
					off := (i * n) % (len(ids) - n)
					k.fn(ids[off:off+n], out)
				}
				benchSink = out[0]
			})
		}
	}
}

var benchSink float32

// BenchmarkQuantEncode prices training and encoding, the one-time build
// cost the serving win pays for.
func BenchmarkQuantEncode(b *testing.B) {
	const dim, rows = 128, 8192
	rng := rand.New(rand.NewSource(1))
	m := vecmath.NewMatrix(rows, dim)
	for i := range m.Data {
		m.Data[i] = rng.Float32() * 100
	}
	b.Run("train", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Train(m)
		}
	})
	q := Train(m)
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q.Encode(m)
		}
	})
}
