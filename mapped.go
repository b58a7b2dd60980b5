package nsg

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// This file is the public face of disk-resident serving: OpenMapped serves
// the file Save writes zero-copy through a memory mapping. Its slabs (CSR
// adjacency, vectors, id remap, SQ8 codes) are exactly the in-memory
// serving representation, so restart cost becomes O(file open) instead of
// O(decode): pages fault in on demand as searches touch them, and capacity
// is bounded by the page cache rather than the Go heap.
//
// A mapped index takes every call a built one does, with byte-identical
// results. A write never touches the file: the first Add a shard drains
// copies its slabs (graph, vectors, codes, ids) onto the heap and, on
// Linux, hands the shard's mapped pages back, and Compact builds its
// replacement on the heap. The mapping lives until Close, or until
// Compact swaps the index and closes the old one. Load is OpenMapped with
// the default, verified MapOptions.

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
// count — and serves every shard in place through one memory mapping (or,
// where mmap is unavailable, one heap copy of each slab read at open),
// restoring the build options and metadata store. The
// returned index takes Add, Delete, Compact and EnableLiveUpdates like a
// built one (see the top of this file) and holds the file open until
// Close. Searches are byte-identical to the heap-resident index that was
// saved. A file in a layout older builds wrote (a stream, or a one-NSG
// "NSGM" record) is refused with an error naming its layout.
//
// By default the whole file is verified against its checksums before
// serving (open reads the file once); MapOptions.NoVerify skips that pass
// for O(1) restarts on trusted storage. A corrupt or truncated file is
// rejected as a whole — never partially served — with an error naming the
// damaged section (see IsCorrupt).
func OpenMapped(path string, opts MapOptions) (*Index, error) {
	x, err := open(path, opts)
	if err != nil {
		return nil, fmt.Errorf("nsg: open mapped %s: %w", path, err)
	}
	return x, nil
}
