package nsg

// Public-API tests for the SQ8 quantized serving path:
// the recall gates the acceptance criteria name, sharded/single parity,
// persistence round trips (including the pre-quantization bundle versions),
// and incremental maintenance on a quantized index.

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vecmath"
)

// quantTestData is the shared 8k-point suite (SIFT-like, dim 128) the
// acceptance gates run on; built once per test process.
func quantTestData(t *testing.T) dataset.Dataset {
	t.Helper()
	ds, err := dataset.SIFTLike(dataset.Config{N: 8000, Queries: 100, GTK: 100, Dim: 128, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func buildQuantIndex(t *testing.T, ds dataset.Dataset, quantize QuantMode) *Index {
	t.Helper()
	opts := DefaultOptions()
	opts.Quantize = quantize
	data := make([]float32, len(ds.Base.Data))
	copy(data, ds.Base.Data)
	idx, err := BuildFromFlat(data, ds.Base.Dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestQuantizedRecallGate is the acceptance gate: recall@10 at the default
// SearchL must stay at or above the floor on the 8k-point suite.
// (Measured: SQ8 matches the float path to four digits, ~0.999.)
func TestQuantizedRecallGate(t *testing.T) {
	ds := quantTestData(t)
	for _, tc := range []struct {
		mode QuantMode
		gate float64
	}{
		{QuantSQ8, 0.98},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			idx := buildQuantIndex(t, ds, tc.mode)
			if !idx.Quantized() {
				t.Fatal("index not quantized")
			}
			if idx.QuantMode() != tc.mode {
				t.Fatalf("QuantMode() = %v, want %v", idx.QuantMode(), tc.mode)
			}
			rec := recallAt10(t, ds, func(q []float32) []int32 {
				ids, _ := idx.Search(q, 10)
				return ids
			})
			if rec < tc.gate {
				t.Fatalf("%v recall@10 = %.4f at default L, gate is %.2f", tc.mode, rec, tc.gate)
			}
		})
	}
}

// TestQuantizedFloatParity: quantized and float recall must agree within the
// parity gate at equal L, and returned distances must be identical
// for identical ids (the rerank emits exact float32 distances in every mode).
func TestQuantizedFloatParity(t *testing.T) {
	ds := quantTestData(t)
	fl := buildQuantIndex(t, ds, QuantNone)
	for _, tc := range []struct {
		mode QuantMode
		gate float64
	}{
		{QuantSQ8, 0.01},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			qt := buildQuantIndex(t, ds, tc.mode)
			for _, l := range []int{20, 60} {
				recF := recallAt10(t, ds, func(q []float32) []int32 {
					ids, _ := fl.SearchWithPool(q, 10, l)
					return ids
				})
				recQ := recallAt10(t, ds, func(q []float32) []int32 {
					ids, _ := qt.SearchWithPool(q, 10, l)
					return ids
				})
				if recF-recQ > tc.gate {
					t.Fatalf("L=%d: %v recall %.4f more than %.2f below float %.4f", l, tc.mode, recQ, tc.gate, recF)
				}
			}
			q := ds.Queries.Row(0)
			qi, qd := qt.SearchWithPool(q, 10, 60)
			for i := range qi {
				if want := vecmath.L2(q, qt.Vector(int(qi[i]))); qd[i] != want {
					t.Fatalf("rank %d: %v dist %g is not the exact distance %g", i, tc.mode, qd[i], want)
				}
			}
		})
	}
}

// TestQuantizedShardedParity is the acceptance parity gate: sharded and
// single-index quantized results agree within 0.01 recall at equal L.
func TestQuantizedShardedParity(t *testing.T) {
	ds := shardedTestData(t, 2000, 50)
	mode := QuantSQ8
	t.Run(mode.String(), func(t *testing.T) {
		single := func() *Index {
			opts := DefaultOptions()
			opts.ExactKNN = true
			opts.Seed = 7
			opts.Quantize = mode
			data := make([]float32, len(ds.Base.Data))
			copy(data, ds.Base.Data)
			idx, err := BuildFromFlat(data, ds.Base.Dim, opts)
			if err != nil {
				t.Fatal(err)
			}
			return idx
		}()
		shOpts := DefaultShardedOptions(4)
		shOpts.Shard.ExactKNN = true
		shOpts.Shard.Seed = 7
		shOpts.Shard.Quantize = mode
		data := make([]float32, len(ds.Base.Data))
		copy(data, ds.Base.Data)
		sharded, err := BuildShardedFromFlat(data, ds.Base.Dim, shOpts)
		if err != nil {
			t.Fatal(err)
		}
		defer sharded.Close()
		if !sharded.Quantized() {
			t.Fatal("sharded index not quantized")
		}
		if sharded.QuantMode() != mode {
			t.Fatalf("sharded QuantMode() = %v, want %v", sharded.QuantMode(), mode)
		}

		const l = 40
		recSingle := recallAt10(t, ds, func(q []float32) []int32 {
			ids, _ := single.SearchWithPool(q, 10, l)
			return ids
		})
		recSharded := recallAt10(t, ds, func(q []float32) []int32 {
			ids, _ := sharded.SearchWithPool(q, 10, l)
			return ids
		})
		if recSingle-recSharded > 0.01 {
			t.Fatalf("sharded %v recall %.4f more than 0.01 below single %.4f", mode, recSharded, recSingle)
		}
	})
}

// TestQuantizedSaveLoadParity: a quantized bundle must reload (codes,
// scales, permutation and remap intact) and return byte-identical results,
// with the Quantize option restored. A bundle from before int4 was removed
// carries the retired int4 marker in place of the SQ8 flag; it must be
// refused, not misread.
func TestQuantizedSaveLoadParity(t *testing.T) {
	ds := shardedTestData(t, 1200, 30)
	mode := QuantSQ8
	opts := DefaultOptions()
	opts.ExactKNN = true
	opts.Seed = 7
	opts.Quantize = mode
	data := make([]float32, len(ds.Base.Data))
	copy(data, ds.Base.Data)
	idx, err := BuildFromFlat(data, ds.Base.Dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "quant.nsg")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	t.Run(mode.String(), func(t *testing.T) {
		loaded, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if !loaded.Quantized() {
			t.Fatal("loaded index lost quantization")
		}
		if loaded.QuantMode() != mode {
			t.Fatalf("loaded QuantMode() = %v, want %v", loaded.QuantMode(), mode)
		}
		for qi := 0; qi < ds.Queries.Rows; qi++ {
			q := ds.Queries.Row(qi)
			ai, ad := idx.SearchWithPool(q, 10, 60)
			bi, bd := loaded.SearchWithPool(q, 10, 60)
			if len(ai) != len(bi) {
				t.Fatalf("query %d: result length changed across save/load", qi)
			}
			for i := range ai {
				if ai[i] != bi[i] || ad[i] != bd[i] {
					t.Fatalf("query %d rank %d: (%d,%g) vs (%d,%g)", qi, i, ai[i], ad[i], bi[i], bd[i])
				}
			}
		}
		// Public ids must address the original vectors on both sides.
		for _, id := range []int{0, 7, 1199} {
			a, b := idx.Vector(id), loaded.Vector(id)
			for d := range a {
				if a[d] != b[d] {
					t.Fatalf("Vector(%d) differs at dim %d across save/load", id, d)
				}
			}
		}
	})
	t.Run("int4", func(t *testing.T) {
		// The core record's flags word follows the 12-byte bundle header,
		// the vectors, and the record's own magic, navigating node and M.
		at := 12 + 4*idx.Len()*idx.Dim() + 12
		blob := mutateWord(t, path, at, swapSQ8ForInt4(t))
		old := filepath.Join(t.TempDir(), "int4.nsg")
		if err := os.WriteFile(old, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := Load(old); err == nil || !strings.Contains(err.Error(), "flags") {
			if got != nil {
				got.Close()
			}
			t.Fatalf("Load of an int4 bundle: got %v, want a record flags error", err)
		}
	})
}

// The NSG record's quantization flags, as internal/core writes them:
// nsgFlagQuant marks SQ8, and nsgFlagQuant4 is the reserved bit that marked
// the removed int4 scheme.
const (
	nsgFlagQuant  = 1 << 1
	nsgFlagQuant4 = 1 << 2
)

// swapSQ8ForInt4 turns an SQ8 record's flags word into an int4 record's,
// failing the test if the word it is given does not carry the SQ8 flag.
func swapSQ8ForInt4(t *testing.T) func(uint32) uint32 {
	return func(f uint32) uint32 {
		if f&nsgFlagQuant == 0 {
			t.Fatalf("flags word %#x does not carry the SQ8 flag", f)
		}
		return f&^nsgFlagQuant | nsgFlagQuant4
	}
}

// addInt4Option sets the reserved int4 bit beside the quantize bit of a
// sharded options word, failing the test if the quantize bit is not set.
func addInt4Option(t *testing.T) func(uint32) uint32 {
	return func(f uint32) uint32 {
		if f != shardedOptQuantize {
			t.Fatalf("options word %#x is not the SQ8 option", f)
		}
		return f | shardedOptInt4
	}
}

// mutateWord reads the file at path and returns its bytes with f applied to
// the little-endian uint32 at offset at.
func mutateWord(t *testing.T, path string, at int, f func(uint32) uint32) []byte {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(blob[at:], f(binary.LittleEndian.Uint32(blob[at:])))
	return blob
}

// TestQuantizedShardedSaveLoad: the sharded bundle round-trips the
// quantized state and the Quantize option (v2 header flags word). A bundle
// from before int4 was removed sets the reserved int4 option bit beside the
// quantize bit; it must be refused, not misread.
func TestQuantizedShardedSaveLoad(t *testing.T) {
	ds := shardedTestData(t, 1000, 20)
	mode := QuantSQ8
	opts := DefaultShardedOptions(3)
	opts.Shard.ExactKNN = true
	opts.Shard.Seed = 7
	opts.Shard.Quantize = mode
	data := make([]float32, len(ds.Base.Data))
	copy(data, ds.Base.Data)
	idx, err := BuildShardedFromFlat(data, ds.Base.Dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	path := filepath.Join(t.TempDir(), "quant.nsgd")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	t.Run(mode.String(), func(t *testing.T) {
		loaded, err := LoadSharded(path)
		if err != nil {
			t.Fatal(err)
		}
		defer loaded.Close()
		if !loaded.Quantized() {
			t.Fatal("loaded sharded index lost quantization")
		}
		if loaded.opts.Shard.Quantize != mode {
			t.Fatalf("Quantize option %v restored from the bundle header, want %v",
				loaded.opts.Shard.Quantize, mode)
		}
		for qi := 0; qi < ds.Queries.Rows; qi++ {
			q := ds.Queries.Row(qi)
			ai, ad := idx.SearchWithPool(q, 10, 50)
			bi, bd := loaded.SearchWithPool(q, 10, 50)
			for i := range ai {
				if ai[i] != bi[i] || ad[i] != bd[i] {
					t.Fatalf("query %d rank %d differs across save/load", qi, i)
				}
			}
		}
	})
	t.Run("int4", func(t *testing.T) {
		// The options word is header bytes 32..35.
		blob := mutateWord(t, path, 32, addInt4Option(t))
		old := filepath.Join(t.TempDir(), "int4.nsgd")
		if err := os.WriteFile(old, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := LoadSharded(old); err == nil || !strings.Contains(err.Error(), "option flags") {
			if got != nil {
				got.Close()
			}
			t.Fatalf("LoadSharded with the int4 bit: got %v, want an option flags error", err)
		}
	})
}

// TestBuildRejectsUnknownQuantMode: every builder refuses a Quantize value
// other than QuantNone and QuantSQ8 (2 was the removed int4 mode) instead of
// building one path or the other.
func TestBuildRejectsUnknownQuantMode(t *testing.T) {
	vecs := randomVectors(50, 4, 37)
	flat := func() []float32 {
		var data []float32
		for _, v := range vecs {
			data = append(data, v...)
		}
		return data
	}
	for _, mode := range []QuantMode{2, 7, -1} {
		opts := DefaultOptions()
		opts.Quantize = mode
		sopts := DefaultShardedOptions(2)
		sopts.Shard.Quantize = mode
		for name, build := range map[string]func() error{
			"Build":         func() error { _, err := Build(vecs, opts); return err },
			"BuildFromFlat": func() error { _, err := BuildFromFlat(flat(), 4, opts); return err },
			"BuildMetric":   func() error { _, err := BuildMetric(vecs, Cosine, opts); return err },
			"BuildSharded":  func() error { _, err := BuildSharded(vecs, sopts); return err },
			"BuildShardedFromFlat": func() error {
				_, err := BuildShardedFromFlat(flat(), 4, sopts)
				return err
			},
		} {
			if err := build(); err == nil || !strings.Contains(err.Error(), "unknown Quantize mode") {
				t.Errorf("%s with Quantize %d: got %v, want an unknown-mode error", name, int(mode), err)
			}
		}
	}
}

// TestShardedBundleV1StillLoads is the version gate for the public sharded
// bundle: a version-1 file (the pre-quantization layout, no flags word)
// must load with quantization off. The v1 bytes are synthesized from a
// current non-quantized index by rewriting the header the way PR 3 wrote it.
func TestShardedBundleV1StillLoads(t *testing.T) {
	ds := shardedTestData(t, 800, 10)
	idx := buildShardedIndex(t, ds, 2)
	defer idx.Close()
	v2 := filepath.Join(t.TempDir(), "v2.nsgd")
	if err := idx.Save(v2); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(v2)
	if err != nil {
		t.Fatal(err)
	}
	// v2 layout: 36-byte header (v1's 32 bytes + trailing flags word). Drop
	// the flags word and stamp version 1 to reconstruct the old layout.
	if got := binary.LittleEndian.Uint32(blob[4:]); got != 2 {
		t.Fatalf("expected version 2 bundle, got %d", got)
	}
	v1blob := append(append([]byte{}, blob[:32]...), blob[36:]...)
	binary.LittleEndian.PutUint32(v1blob[4:], 1)
	v1 := filepath.Join(t.TempDir(), "v1.nsgd")
	if err := os.WriteFile(v1, v1blob, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSharded(v1)
	if err != nil {
		t.Fatalf("v1 bundle failed to load: %v", err)
	}
	defer loaded.Close()
	if loaded.Quantized() || loaded.opts.Shard.Quantize != QuantNone {
		t.Fatal("v1 bundle loaded with quantization on")
	}
	q := ds.Queries.Row(0)
	ai, _ := idx.SearchWithPool(q, 10, 50)
	bi, _ := loaded.SearchWithPool(q, 10, 50)
	for i := range ai {
		if ai[i] != bi[i] {
			t.Fatalf("rank %d: v1 reload changed results", i)
		}
	}
}

// TestQuantizedAddDeleteCompact exercises incremental maintenance on a
// quantized index: Add encodes into the code matrix, Delete filters public
// ids, Compact rebuilds with quantization re-enabled.
func TestQuantizedAddDeleteCompact(t *testing.T) {
	ds := shardedTestData(t, 600, 10)
	mode := QuantSQ8
	t.Run(mode.String(), func(t *testing.T) {
		opts := DefaultOptions()
		opts.ExactKNN = true
		opts.Seed = 7
		opts.Quantize = mode
		data := make([]float32, len(ds.Base.Data))
		copy(data, ds.Base.Data)
		idx, err := BuildFromFlat(data, ds.Base.Dim, opts)
		if err != nil {
			t.Fatal(err)
		}

		vec := make([]float32, ds.Base.Dim)
		copy(vec, ds.Base.Row(3))
		for d := range vec {
			vec[d] += 0.25
		}
		id, err := idx.Add(vec)
		if err != nil {
			t.Fatal(err)
		}
		ids, dists := idx.Search(vec, 1)
		if ids[0] != id || dists[0] != 0 {
			t.Fatalf("added vector not found: id %d dist %g", ids[0], dists[0])
		}

		if err := idx.Delete(id); err != nil {
			t.Fatal(err)
		}
		ids, _ = idx.Search(vec, 1)
		if ids[0] == id {
			t.Fatal("deleted id still returned")
		}

		remap, err := idx.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if remap[id] != -1 {
			t.Fatalf("deleted id remapped to %d, want -1", remap[id])
		}
		if !idx.Quantized() || idx.QuantMode() != mode {
			t.Fatalf("Compact dropped quantization: mode %v, want %v", idx.QuantMode(), mode)
		}
		ids, dists = idx.Search(idx.Vector(0), 1)
		if ids[0] != 0 || dists[0] != 0 {
			t.Fatalf("compacted quantized index broken: id %d dist %g", ids[0], dists[0])
		}
	})
}
