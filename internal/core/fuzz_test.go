package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/vecmath"
)

// wideRowRecord is a graph-only NSGF record over n nodes whose node 0 links
// to every other node and whose other rows are empty: about 8n bytes, with
// the largest degree a record of n nodes can hold. Its n = 4 form is a
// committed FuzzReadNSG seed.
func wideRowRecord(n int) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(le.AppendUint32(le.AppendUint32(nil, nsgFileMagic), 0), 2)
	b = le.AppendUint32(le.AppendUint32(le.AppendUint32(b, 0x4e534731), uint32(n)), uint32(n-1))
	for v := 1; v < n; v++ {
		b = le.AppendUint32(b, uint32(v))
	}
	for range n - 1 {
		b = le.AppendUint32(b, 0)
	}
	return b
}

// TestReadNSGSizesGraphByEdges: a record's graph costs what its bytes hold.
// One row of degree n-1 in an n-node record used to size every row for
// that degree, n^2 slots for about 8n bytes of file; the CSR reader
// allocates in proportion to the record.
func TestReadNSGSizesGraphByEdges(t *testing.T) {
	const n = 4096
	rec := wideRowRecord(n)
	base := vecmath.NewMatrix(n, 2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	idx, _, err := ReadNSG(bytes.NewReader(rec), base)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if d := idx.flat.Degree(0); d != n-1 || idx.flat.Edges() != n-1 {
		t.Fatalf("node 0 degree %d, %d edges; want %d each", d, idx.flat.Edges(), n-1)
	}
	// Offsets and id tables are 4n bytes each, the edge slab grows to at
	// most twice its 4n bytes, and the reader buffers 4 KiB: a few times
	// the record (more under -race), where n^2 slots would be 2 000 times.
	if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*len(rec)); alloc > limit {
		t.Fatalf("reading a %d-byte record allocated %d bytes, more than %d", len(rec), alloc, limit)
	}
}

// FuzzReadNSG hardens the index deserializer: arbitrary bytes must produce
// a clean error or a structurally valid index, never a panic.
func FuzzReadNSG(f *testing.F) {
	base := pathBase()
	valid := recordFile(f, "path4.nsgq")
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:8])
	// The graph-only NSGF layout; a quantized record, so mutations of the
	// code sections are explored too; the same record with its SQ8 flag
	// swapped for the retired int4 marker, which seeds the rejection of old
	// int4 files; and a degree cap far past any real one (OpenMappedAt's
	// bound applies).
	for _, name := range []string{"path4.nsgf", "path4_sq8.nsgq", "path4_int4_flag.nsgq", "path4_huge_m.nsgq"} {
		f.Add(recordFile(f, name))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, _, err := ReadNSG(bytes.NewReader(data), base)
		if err != nil {
			return
		}
		if idx.flat.N() != base.Rows {
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
