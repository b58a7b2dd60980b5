package nsg

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/distsearch"
	"repro/internal/live"
)

// This file is the public face of disk-resident serving: SaveMapped writes
// an index as one alignment-padded file whose slabs (fixed-stride
// adjacency, vectors, id remap, SQ8 codes) are exactly the in-memory
// serving representation, and OpenMapped serves that file zero-copy
// through a memory mapping. Restart cost becomes O(file open) instead of
// O(decode): pages fault in on demand as searches touch them, and capacity
// is bounded by the page cache rather than the Go heap.
//
// A mapped index is read-only. Searches, batch searches, Delete (a
// heap-side tombstone set) and Stats work exactly as on a built index,
// with byte-identical results; Add, Compact (once anything is deleted) and
// EnableLiveUpdates return ErrReadOnly. Call PromoteToHeap to copy the
// index out of the mapping and regain the full mutation API, or rebuild
// from vectors.

// ErrReadOnly is returned by mutating operations on an index opened with
// OpenMapped or OpenMappedSharded. Use errors.Is to detect it.
var ErrReadOnly = core.ErrReadOnly

// IsCorrupt reports whether err (from OpenMapped or OpenMappedSharded)
// describes a damaged or truncated index file, as opposed to an I/O
// failure. The error text names the section that failed validation.
func IsCorrupt(err error) bool {
	var fe *core.FormatError
	return errors.As(err, &fe)
}

// MapOptions configures OpenMapped and OpenMappedSharded.
type MapOptions struct {
	// NoVerify skips the whole-file content verification pass (per-section
	// CRC32 checks and a graph structure scan), making open O(1) in index
	// size — the trusted-storage fast-restart path. Header geometry,
	// checksummed headers and the id-remap permutation are still validated.
	// Only set this when the file comes from storage you trust end to end:
	// with NoVerify, in-place corruption of a slab can crash searches or
	// silently return wrong results.
	NoVerify bool
}

func (o MapOptions) internal() core.MapOptions {
	return core.MapOptions{NoVerify: o.NoVerify}
}

// SaveMapped writes the index in the disk-resident serving layout —
// alignment-padded slabs behind a checksummed header — crash-safely (temp
// file + fsync + rename). The file is self-contained (vectors included)
// and is the format OpenMapped serves without decoding. Stop issuing Adds
// first; like Save, it flushes the delta. An index with deleted points
// returns ErrUncompactedDeletes and writes nothing: Compact first.
func (x *Index) SaveMapped(path string) error {
	if x.DeletedCount() > 0 {
		return ErrUncompactedDeletes
	}
	x.Flush()
	return x.inner.SaveMapped(path)
}

// OpenMapped opens a file written by SaveMapped and serves it in place
// through a memory mapping (or, where mmap is unavailable, one heap copy of
// each slab read at open). The returned index is read-only — see
// ErrReadOnly — and holds the file open until Close. Searches are
// byte-identical to the heap-resident index that was saved.
//
// By default the whole file is verified against its checksums before
// serving (open reads the file once); MapOptions.NoVerify skips that pass
// for O(1) restarts on trusted storage. A corrupt or truncated file is
// rejected as a whole — never partially served — with an error naming the
// damaged section (see IsCorrupt).
func OpenMapped(path string, opts MapOptions) (*Index, error) {
	inner, err := core.OpenMapped(path, opts.internal())
	if err != nil {
		return nil, fmt.Errorf("nsg: open mapped %s: %w", path, err)
	}
	o := DefaultOptions()
	o.Quantize = quantModeOf(inner.IsQuantized())
	return newIndex(inner, o, BuildStats{}), nil
}

// ReadOnly reports whether the index is a mapped, read-only view (opened
// with OpenMapped). Mutating operations on such an index return
// ErrReadOnly.
func (x *Index) ReadOnly() bool { return x.inner.ReadOnly() }

// PromoteToHeap converts a mapped index into an ordinary mutable index:
// every slab is copied to the heap, the file mapping is released, and the
// full mutation API (Add, Compact, EnableLiveUpdates, quantization)
// becomes available. Tombstones carry over and search results are
// unchanged. A no-op on an index that is already heap-resident. Must not
// run concurrently with other calls on the index.
func (x *Index) PromoteToHeap() error {
	if !x.inner.ReadOnly() {
		return nil
	}
	if err := x.inner.PromoteToHeap(); err != nil {
		return err
	}
	// The old handle's snapshot points into the released mapping.
	x.h = live.New(x.inner, nil, x.h.Dead(), x.h.Options())
	return nil
}

// shardedMetaSize must fit distsearch.MappedMetaSize; the blob persists
// the per-shard options the same way the stream bundle's header does.
const shardedMetaLen = 20

func (x *ShardedIndex) encodeMappedMeta() []byte {
	meta := make([]byte, shardedMetaLen)
	binary.LittleEndian.PutUint32(meta[0:], uint32(x.opts.Shard.GraphK))
	binary.LittleEndian.PutUint32(meta[4:], uint32(x.opts.Shard.BuildL))
	binary.LittleEndian.PutUint32(meta[8:], uint32(x.opts.Shard.MaxDegree))
	binary.LittleEndian.PutUint32(meta[12:], uint32(x.opts.Shard.SearchL))
	binary.LittleEndian.PutUint32(meta[16:], encodeQuantFlags(x.opts.Shard.Quantize))
	return meta
}

// decodeMappedMeta is the inverse of encodeMappedMeta. An option word with
// unknown bits makes the container corrupt (see IsCorrupt).
func decodeMappedMeta(meta []byte, shards int) (ShardedOptions, error) {
	opts := ShardedOptions{Shards: shards}
	if len(meta) >= shardedMetaLen {
		quantize, err := decodeQuantFlags(binary.LittleEndian.Uint32(meta[16:]))
		if err != nil {
			return opts, &core.FormatError{Section: core.SectionHeader, Reason: err.Error()}
		}
		opts.Shard = Options{
			GraphK:    int(binary.LittleEndian.Uint32(meta[0:])),
			BuildL:    int(binary.LittleEndian.Uint32(meta[4:])),
			MaxDegree: int(binary.LittleEndian.Uint32(meta[8:])),
			SearchL:   int(binary.LittleEndian.Uint32(meta[12:])),
			Quantize:  quantize,
		}
	}
	opts.Shard.fillDefaults()
	return opts, nil
}

// SaveMapped writes the sharded index as one disk-resident container: per
// shard, an id map plus a complete aligned record (adjacency, vectors,
// codes), all behind checksummed tables, written crash-safely. The build
// options ride along, as with Save. Stop issuing Adds first; SaveMapped
// flushes the maintainers so the file captures every point.
func (x *ShardedIndex) SaveMapped(path string) error {
	x.Flush()
	return x.s.SaveMapped(path, x.encodeMappedMeta())
}

// OpenMappedSharded opens a container written by ShardedIndex.SaveMapped
// and serves every shard from one mapping, restoring the options the index
// was built with. The returned index is read-only (Add and
// EnableLiveUpdates return ErrReadOnly); searches behave exactly as on the
// saved index. Close releases the mapping.
func OpenMappedSharded(path string, opts MapOptions) (*ShardedIndex, error) {
	s, meta, err := distsearch.OpenMappedSharded(path, opts.internal())
	if err != nil {
		return nil, fmt.Errorf("nsg: open mapped %s: %w", path, err)
	}
	shardOpts, err := decodeMappedMeta(meta, s.Shards())
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("nsg: open mapped %s: %w", path, err)
	}
	return newShardedIndex(s, shardOpts), nil
}

// ReadOnly reports whether the sharded index is a mapped read-only view.
func (x *ShardedIndex) ReadOnly() bool { return x.s.ReadOnly() }
