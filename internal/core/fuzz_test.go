package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/graphutil"
	"repro/internal/vecmath"
)

// FuzzReadNSG hardens the index deserializer: arbitrary bytes must produce
// a clean error or a structurally valid index, never a panic.
func FuzzReadNSG(f *testing.F) {
	base := vecmath.NewMatrix(4, 2)
	for i := 0; i < 4; i++ {
		base.Row(i)[0] = float32(i)
	}
	gr := graphutil.New(4)
	for i := int32(0); i < 3; i++ {
		gr.AddEdge(i, i+1)
		gr.AddEdge(i+1, i)
	}
	g := newNSG(graphutil.Flatten(gr), 0, base, 2)
	var valid bytes.Buffer
	if err := g.Write(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add(valid.Bytes()[:8])
	// The graph-only NSGF layout, which nothing writes any more but
	// ReadNSG still reads.
	le := binary.LittleEndian
	legacy := bytes.NewBuffer(le.AppendUint32(le.AppendUint32(le.AppendUint32(nil, nsgFileMagic), 0), 2))
	if _, err := g.flat.WriteTo(legacy); err != nil {
		f.Fatal(err)
	}
	f.Add(legacy.Bytes())
	// A quantized record seeds the flagged stream layout, so mutations of
	// the code sections are explored too; the same record with its SQ8 flag
	// swapped for the retired int4 marker seeds the rejection of old int4
	// files.
	if err := g.EnableQuantization(nil); err != nil {
		f.Fatal(err)
	}
	var validSQ8 bytes.Buffer
	if err := g.Write(&validSQ8); err != nil {
		f.Fatal(err)
	}
	f.Add(validSQ8.Bytes())
	int4Flag := bytes.Clone(validSQ8.Bytes())
	int4Flag[12] = int4Flag[12]&^nsgFlagQuant | nsgFlagQuant4
	f.Add(int4Flag)
	// A degree cap far past any real one (OpenMappedAt's bound applies).
	hugeM := bytes.Clone(valid.Bytes())
	le.PutUint32(hugeM[8:], 0xFFFFFFF0)
	f.Add(hugeM)
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, _, err := ReadNSG(bytes.NewReader(data), base)
		if err != nil {
			return
		}
		if idx.flat.Nodes != base.Rows {
			t.Fatal("parsed index with wrong node count and no error")
		}
		if idx.M < 0 || idx.M > maxDegreeCap {
			t.Fatalf("parsed index with degree cap %d and no error", idx.M)
		}
		if int(idx.Navigating) >= base.Rows || idx.Navigating < 0 {
			t.Fatal("parsed index with out-of-range navigating node")
		}
		// A parsed index must be searchable without panicking.
		idx.Search(base.Row(0), 1, 4, nil)
	})
}
