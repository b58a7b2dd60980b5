package nsg

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/distsearch"
)

// This file is the public face of disk-resident serving: OpenMapped serves
// the file Save writes zero-copy through a memory mapping. Its slabs (CSR
// adjacency, vectors, id remap, SQ8 codes) are exactly the in-memory
// serving representation, so restart cost becomes O(file open) instead of
// O(decode): pages fault in on demand as searches touch them, and capacity
// is bounded by the page cache rather than the Go heap.
//
// A mapped index is read-only. Searches, batch searches, Delete (a
// heap-side tombstone set) and Stats work exactly as on a built index,
// with byte-identical results; Add, Compact (once anything is deleted) and
// EnableLiveUpdates return ErrReadOnly. Call PromoteToHeap to copy the
// index out of the mapping and regain the full mutation API (Load does
// both in one call), or rebuild from vectors.

// ErrReadOnly is returned by mutating operations on an index opened with
// OpenMapped. Use errors.Is to detect it.
var ErrReadOnly = core.ErrReadOnly

// IsCorrupt reports whether err (from Load or OpenMapped) describes a
// damaged or truncated index file, as opposed to an I/O failure. The error
// text names the section that failed validation.
func IsCorrupt(err error) bool {
	var fe *core.FormatError
	return errors.As(err, &fe)
}

// MapOptions configures OpenMapped: NoVerify skips the verification pass
// for O(1) restarts on trusted storage.
type MapOptions = core.MapOptions

// SaveMapped is Save: every index writes the one format OpenMapped serves.
func (x *Index) SaveMapped(path string) error { return x.Save(path) }

// OpenMapped opens a file written by Save — by any index, of any shard
// count, or a one-NSG "NSGM" file from before every index wrote
// containers — and serves every shard in place through one memory mapping
// (or, where mmap is unavailable, one heap copy of each slab read at open),
// restoring the build options and metadata store as Load does. The
// returned index is read-only — see ErrReadOnly — and holds the file open
// until Close. Searches are byte-identical to the heap-resident index that
// was saved.
//
// By default the whole file is verified against its checksums before
// serving (open reads the file once); MapOptions.NoVerify skips that pass
// for O(1) restarts on trusted storage. A corrupt or truncated file is
// rejected as a whole — never partially served — with an error naming the
// damaged section (see IsCorrupt).
func OpenMapped(path string, opts MapOptions) (*Index, error) {
	s, fo, err := distsearch.OpenMapped(path, opts)
	if err != nil {
		return nil, fmt.Errorf("nsg: open mapped %s: %w", path, err)
	}
	return open(s, fo), nil
}

// PromoteToHeap converts a mapped index into an ordinary mutable index:
// every slab is copied to the heap, the file mapping is released, and the
// full mutation API (Add, Compact, EnableLiveUpdates) becomes available.
// Tombstones and the live-update cadence carry over and search results are
// unchanged. A no-op on an index that is already heap-resident. Must not
// run concurrently with other calls on the index.
func (x *Index) PromoteToHeap() error {
	x.s.PromoteToHeap()
	return nil
}
