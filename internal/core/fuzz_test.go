package core

import (
	"bytes"
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
	g := &NSG{Graph: gr, Navigating: 0, Base: base, M: 2}
	var valid bytes.Buffer
	if err := g.Write(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add(valid.Bytes()[:8])
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
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := ReadNSG(bytes.NewReader(data), base)
		if err != nil {
			return
		}
		if idx.Graph.N() != base.Rows {
			t.Fatal("parsed index with wrong node count and no error")
		}
		if int(idx.Navigating) >= base.Rows || idx.Navigating < 0 {
			t.Fatal("parsed index with out-of-range navigating node")
		}
		// A parsed index must be searchable without panicking.
		idx.Search(base.Row(0), 1, 4, nil)
	})
}
