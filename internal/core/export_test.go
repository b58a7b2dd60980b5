package core

import (
	"testing"

	"repro/internal/mstore"
)

// SetQuantBoundOff turns the quantization error bound off (true) or back on
// for the external tests: with it off, every quantized search rescores its
// whole pool and every filtered scan scores every passing row in float32.
func SetQuantBoundOff(off bool) { quantBoundOff = off }

// OpenMappedFile opens the NSGM record that fills the file at path, as a
// container opens each record it holds, and releases the mapping when tb's
// test ends.
func OpenMappedFile(tb testing.TB, path string, opts MapOptions) (*NSG, error) {
	f, err := mstore.Open(path)
	if err != nil {
		return nil, err
	}
	tb.Cleanup(func() { f.Close() })
	return OpenMappedAt(f, 0, f.Size(), opts)
}

// SaveMappedFile writes x as one NSGM record to path.
func SaveMappedFile(tb testing.TB, x *NSG, path string) {
	tb.Helper()
	if err := mstore.WriteFileAtomic(path, x.WriteMapped); err != nil {
		tb.Fatal(err)
	}
}
