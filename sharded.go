package nsg

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/distsearch"
	"repro/internal/mstore"
	"repro/internal/vecmath"
)

// ShardedIndex is the public sharded serving subsystem: the base set is
// partitioned into r shards, an independent NSG is built per shard, and
// every query fans out to all shards in parallel with results merged by
// distance. This is how the paper serves its largest workloads — DEEP100M
// as 16 subset NSGs searched simultaneously (Figure 7) and the Taobao
// production deployment's 12- and 32-partition distributed search
// (Table 5) — with goroutines standing in for the paper's machines.
//
// Sharding trades a little per-query work (every shard is searched) for
// three things: build time (r small NSGs build faster than one big one,
// in parallel), tail latency (each shard's graph is shallower, and shard
// searches overlap on separate cores), and operational ceiling (shards are
// the unit you would distribute across processes or hosts).
//
// Index is the r = 1 case of the same implementation, so the two share
// every search, write, filter and maintenance method and its concurrency
// contract: any number of goroutines may query concurrently, and Add and
// Delete are safe concurrently with searches and with each other. The
// caller of a search runs one shard itself, and a pool of persistent
// shard-worker goroutines, one warm SearchContext per worker, takes the
// others, so a steady-state Search allocates nothing beyond the two
// returned result slices. Call Close when discarding an index before
// process exit so those workers and the shard maintainers are released.
type ShardedIndex struct{ engine }

// ShardedOptions configures BuildSharded.
type ShardedOptions struct {
	// Shards is the number of partitions r. The paper's deployments use
	// r = 16 (DEEP100M) and r = 12/32 (Taobao); at library scale, a few
	// shards per available core is the useful range.
	Shards int
	// Shard holds the per-shard construction and search options; shard s
	// derives its seed from Shard.Seed + s, so builds are reproducible.
	Shard Options
}

// DefaultShardedOptions returns settings that work at test-to-laptop scale
// for the given shard count.
func DefaultShardedOptions(shards int) ShardedOptions {
	return ShardedOptions{Shards: shards, Shard: DefaultOptions()}
}

// BuildSharded partitions vectors into opts.Shards random near-equal
// subsets (the paper partitions "randomly and evenly") and builds one NSG
// per shard, in parallel.
func BuildSharded(vectors [][]float32, opts ShardedOptions) (*ShardedIndex, error) {
	if len(vectors) < 2 {
		return nil, fmt.Errorf("nsg: need at least 2 vectors, have %d", len(vectors))
	}
	return buildShardedFromMatrix(vecmath.MatrixFromSlices(vectors), opts)
}

// BuildShardedFromFlat is BuildSharded over row-major flat data: data holds
// n*dim values. The index copies the rows into its shards and keeps no
// reference to data.
func BuildShardedFromFlat(data []float32, dim int, opts ShardedOptions) (*ShardedIndex, error) {
	if dim <= 0 || len(data)%dim != 0 {
		return nil, fmt.Errorf("nsg: data length %d not a multiple of dim %d", len(data), dim)
	}
	n := len(data) / dim
	if n < 2 {
		return nil, fmt.Errorf("nsg: need at least 2 vectors, have %d", n)
	}
	return buildShardedFromMatrix(vecmath.Matrix{Data: data, Rows: n, Dim: dim}, opts)
}

func buildShardedFromMatrix(base vecmath.Matrix, opts ShardedOptions) (*ShardedIndex, error) {
	s, shard, err := build(base, opts.Shard, opts.Shards)
	if err != nil {
		return nil, err
	}
	x := &ShardedIndex{}
	x.init(s, shard)
	return x, nil
}

// Shards returns the number of partitions.
func (x *ShardedIndex) Shards() int { return x.s.Shards() }

// ShardedStats describes a built sharded index.
type ShardedStats struct {
	N          int   // indexed vectors across all shards
	Shards     int   // partition count
	ShardSizes []int // vectors per shard
	IndexBytes int64 // summed per-shard graph footprints (fixed-stride rows)
}

// Stats reports per-shard and aggregate statistics. Safe to call
// concurrently with serving (graph figures describe the published
// snapshots).
func (x *ShardedIndex) Stats() ShardedStats {
	return ShardedStats{
		N:          x.s.Len(),
		Shards:     x.s.Shards(),
		ShardSizes: x.s.ShardSizes(),
		IndexBytes: x.s.IndexBytes(),
	}
}

// Save writes the sharded index, including its vectors and build options,
// to path, crash-safely. The bundle (see distsearch.Sharded.Write) holds
// the shape and the per-shard Options, so a reloaded index keeps its
// Add/Search parameters, then the vectors in global-id order, then the
// shard id maps and per-shard graphs. Stop issuing Adds first; Save
// flushes the maintainers so the file captures every point (concurrent
// searches are fine). A mapped sharded index writes the bytes of the heap
// index it was mapped from; an index with deleted points returns
// ErrUncompactedDeletes (Compact first).
func (x *ShardedIndex) Save(path string) error {
	if x.DeletedCount() > 0 {
		return ErrUncompactedDeletes
	}
	x.Flush()
	return mstore.WriteFileAtomic(path, func(w io.Writer) error {
		return x.s.Write(w, x.encodeOptions())
	})
}

// LoadSharded reopens a sharded index written by Save, restoring the
// options it was built with (so Add and default Search behave as on the
// original index). The loaded index has a running worker pool and serves
// immediately.
func LoadSharded(path string) (*ShardedIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("nsg: %w", err)
	}
	defer f.Close()
	s, blob, err := distsearch.Read(f)
	if err != nil {
		return nil, fmt.Errorf("nsg: load %s: %w", path, err)
	}
	opts, err := decodeOptions(blob)
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("nsg: load %s: %w", path, err)
	}
	x := &ShardedIndex{}
	x.init(s, opts)
	return x, nil
}

// The options blob both sharded formats carry (distsearch.OptionsSize
// bytes): GraphK, BuildL, MaxDegree and SearchL, then the flags word.
const (
	shardedOptQuantize = 1 << 0
	// shardedOptInt4 is reserved. Set beside shardedOptQuantize it marked
	// the int4 path, which was removed; decodeOptions rejects it as an
	// unknown bit, and it must not be reused, so an old int4 bundle is
	// never misread.
	shardedOptInt4 = 1 << 1
)

func (x *ShardedIndex) encodeOptions() []byte {
	blob := make([]byte, distsearch.OptionsSize)
	binary.LittleEndian.PutUint32(blob[0:], uint32(x.opts.GraphK))
	binary.LittleEndian.PutUint32(blob[4:], uint32(x.opts.BuildL))
	binary.LittleEndian.PutUint32(blob[8:], uint32(x.opts.MaxDegree))
	binary.LittleEndian.PutUint32(blob[12:], uint32(x.opts.SearchL))
	if x.opts.Quantize == QuantSQ8 {
		binary.LittleEndian.PutUint32(blob[16:], shardedOptQuantize)
	}
	return blob
}

// decodeOptions is the inverse of encodeOptions; zeroed fields take their
// defaults. A flags word with any bit it does not know, the reserved
// shardedOptInt4 among them, is an error.
func decodeOptions(blob []byte) (Options, error) {
	flags := binary.LittleEndian.Uint32(blob[16:])
	if flags&^shardedOptQuantize != 0 {
		return Options{}, fmt.Errorf("unsupported sharded option flags %#x", flags)
	}
	opts := Options{
		GraphK:    int(binary.LittleEndian.Uint32(blob[0:])),
		BuildL:    int(binary.LittleEndian.Uint32(blob[4:])),
		MaxDegree: int(binary.LittleEndian.Uint32(blob[8:])),
		SearchL:   int(binary.LittleEndian.Uint32(blob[12:])),
		Quantize:  quantModeOf(flags&shardedOptQuantize != 0),
	}
	opts.fillDefaults()
	return opts, nil
}
