package distsearch

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

func saveShardedMapped(t *testing.T, s *Sharded, opts FileOptions) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sharded.nsms")
	if err := s.Save(path, opts); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestShardedMappedParity: a mapped container must serve byte-identical
// fan-out results to the heap index it was written from, for the plain
// build and the SQ8 build.
func TestShardedMappedParity(t *testing.T) {
	for _, tc := range []struct {
		name     string
		quantize bool
	}{{"float32", false}, {"sq8", true}} {
		quantize := tc.quantize
		t.Run(tc.name, func(t *testing.T) {
			ds, err := dataset.ECommerceLike(dataset.Config{N: 1500, Queries: 25, GTK: 10, Dim: 32, Seed: 31})
			if err != nil {
				t.Fatal(err)
			}
			p := DefaultParams(3)
			p.UseNNDescent = false
			p.Quantize = quantize
			heap, err := BuildSharded(ds.Base, p)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(heap.Close)

			opts := FileOptions{GraphK: 12, SearchL: 7, Quantize: quantize}
			path := saveShardedMapped(t, heap, opts)
			mapped, gotOpts, err := OpenMapped(path, core.MapOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(mapped.Close)
			if gotOpts != opts {
				t.Fatalf("options round trip: %+v vs %+v", gotOpts, opts)
			}
			if mapped.Shards() != heap.Shards() || mapped.Len() != heap.Len() {
				t.Fatalf("mapped shape: shards=%d len=%d", mapped.Shards(), mapped.Len())
			}
			if mapped.Quantized() != quantize {
				t.Fatalf("Quantized() = %v, want %v", mapped.Quantized(), quantize)
			}
			for qi := 0; qi < ds.Queries.Rows; qi++ {
				q := ds.Queries.Row(qi)
				hr := heap.Search(nil, q, 10, 50, nil, nil)
				mr := mapped.Search(nil, q, 10, 50, nil, nil)
				if len(hr) != len(mr) {
					t.Fatalf("query %d: %d vs %d results", qi, len(hr), len(mr))
				}
				for i := range hr {
					if hr[i].ID != mr[i].ID || math.Float32bits(hr[i].Dist) != math.Float32bits(mr[i].Dist) {
						t.Fatalf("query %d pos %d: heap (%d,%x) vs mapped (%d,%x)",
							qi, i, hr[i].ID, math.Float32bits(hr[i].Dist), mr[i].ID, math.Float32bits(mr[i].Dist))
					}
				}
			}
			// Vector lookup resolves through the locator on the mapped side
			// and must agree with the original base rows.
			for _, id := range []int{0, 7, ds.Base.Rows - 1} {
				want := ds.Base.Row(id)
				got := mapped.VectorByID(id)
				for d := range want {
					if want[d] != got[d] {
						t.Fatalf("VectorByID(%d)[%d]: %v vs %v", id, d, got[d], want[d])
					}
				}
				l := mapped.loc[id]
				if g := mapped.handles[l.shard].Translate()[l.local]; g != int32(id) {
					t.Fatalf("locator sends %d to shard %d row %d, which holds %d", id, l.shard, l.local, g)
				}
			}
			if hb, mb := heap.IndexBytes(), mapped.IndexBytes(); hb != mb {
				t.Fatalf("IndexBytes %d vs %d", hb, mb)
			}
		})
	}
}

// TestShardedMappedCorruption: container-level damage must be rejected as
// a whole — no partially valid multi-shard index ever serves.
func TestShardedMappedCorruption(t *testing.T) {
	heap, _ := buildSharded(t, 800, 2)
	var buf bytes.Buffer
	if err := heap.Write(&buf, FileOptions{}); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"table-crc", func(b []byte) []byte { b[smHeaderSize] ^= 0x01; return b }},
		{"size-mismatch", func(b []byte) []byte { return append(b, 0) }},
		{"truncate-header", func(b []byte) []byte { return b[:smHeaderSize-8] }},
		{"truncate-mid-shard", func(b []byte) []byte { return b[:len(b)/2&^63] }},
		{"idmap-rot", func(b []byte) []byte {
			off := int64(0)
			for i := 0; i < 8; i++ { // idmapOff of shard 0 from the table
				off |= int64(b[smHeaderSize+i]) << (8 * i)
			}
			b[off] ^= 0x01
			return b
		}},
		{"second-record-rot-header", func(b []byte) []byte {
			off := int64(0)
			for i := 0; i < 8; i++ { // recOff of shard 1
				off |= int64(b[smHeaderSize+smShardEntrySize+16+i]) << (8 * i)
			}
			b[off+4] ^= 0xff // version field of the embedded record
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(append([]byte(nil), valid...))
			path := filepath.Join(t.TempDir(), "corrupt.nsms")
			if err := os.WriteFile(path, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			s, _, err := OpenMapped(path, core.MapOptions{})
			if err == nil {
				s.Close()
				t.Fatal("corrupt container opened without error")
			}
			var fe *core.FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v is not a FormatError", err)
			}
		})
	}
}
