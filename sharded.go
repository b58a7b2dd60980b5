package nsg

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/core"
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
// The concurrency contract matches Index: the index may be queried from
// any number of goroutines concurrently, and Add is safe concurrently with
// searches and other Adds. Internally each index owns a pool of persistent
// shard-worker goroutines, one warm SearchContext per worker, so a
// steady-state Search allocates nothing beyond the two returned result
// slices. Call Close when discarding an index before process exit so those
// workers and the shard maintainers are released.
type ShardedIndex struct {
	s    *distsearch.Sharded
	opts ShardedOptions
	// bufs recycles merge destination buffers so the fan-out path stays
	// allocation-free across concurrent callers.
	bufs sync.Pool
}

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
	if err := opts.Shard.Quantize.check(); err != nil {
		return nil, err
	}
	if !vecmath.Finite(base.Data) {
		return nil, ErrNonFinite
	}
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	opts.Shard.fillDefaults()
	s, err := distsearch.BuildSharded(base, distsearch.Params{
		Shards:       opts.Shards,
		KNNK:         opts.Shard.GraphK,
		Build:        core.BuildParams{L: opts.Shard.BuildL, M: opts.Shard.MaxDegree, Seed: opts.Shard.Seed},
		UseNNDescent: !opts.Shard.ExactKNN,
		Quantize:     opts.Shard.Quantize == QuantSQ8,
		Seed:         opts.Shard.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("nsg: sharded build: %w", err)
	}
	return newShardedIndex(s, opts), nil
}

// newShardedIndex wraps a built, loaded or mapped sharded index, handing
// its shard maintainers the per-shard insert parameters.
func newShardedIndex(s *distsearch.Sharded, opts ShardedOptions) *ShardedIndex {
	x := &ShardedIndex{s: s, opts: opts}
	s.SetLiveOptions(LiveOptions{}.internal(x.insertParams()))
	return x
}

func (x *ShardedIndex) insertParams() core.InsertParams {
	return core.InsertParams{M: x.opts.Shard.MaxDegree, L: x.opts.Shard.BuildL}
}

// EnableLiveUpdates sets the shard maintainers' cadence. Every mutable
// sharded index already accepts Add concurrently with Search (and with
// other Adds), routing each vector to one shard's delta buffer while every
// shard keeps serving its published snapshot without locks. See
// Index.EnableLiveUpdates and the README's "Live updates" section. Returns
// ErrReadOnly on a mapped index.
func (x *ShardedIndex) EnableLiveUpdates(opts LiveOptions) error {
	if x.s.ReadOnly() {
		return ErrReadOnly
	}
	x.s.SetLiveOptions(opts.internal(x.insertParams()))
	return nil
}

// MaintenanceStats aggregates the per-shard live maintenance state:
// pending depths and drain counters are summed, LastPublish is the oldest
// shard's publish time (the staleness bound).
func (x *ShardedIndex) MaintenanceStats() MaintenanceStats {
	return maintenanceStats(x.s.LiveStats())
}

// Flush blocks until every point added before the call is folded into a
// published shard snapshot. Useful in tests and before Save; serving never
// needs it.
func (x *ShardedIndex) Flush() { x.s.Flush() }

// Len returns the number of indexed vectors across all shards. Safe to
// call concurrently with Add.
func (x *ShardedIndex) Len() int { return x.s.Len() }

// Dim returns the vector dimension.
func (x *ShardedIndex) Dim() int { return x.s.Dim() }

// Shards returns the number of partitions.
func (x *ShardedIndex) Shards() int { return x.s.Shards() }

// Quantized reports whether the shards serve through a quantized search
// path (built with Options.Quantize or loaded from such a bundle).
func (x *ShardedIndex) Quantized() bool { return x.s.Quantized() }

// QuantMode returns the shards' compressed serving mode (QuantNone when
// they serve full float32 vectors; all shards share one quantization
// state).
func (x *ShardedIndex) QuantMode() QuantMode { return quantModeOf(x.s.Quantized()) }

// Vector returns the stored vector with the given global id, or nil for an
// id outside [0, Len()). The returned slice aliases the index's storage; do
// not modify it. Safe to call concurrently with Add.
func (x *ShardedIndex) Vector(id int) []float32 {
	if id < 0 || id >= x.Len() {
		return nil
	}
	return x.s.VectorByID(id)
}

// Close flushes pending Adds and releases the index's shard-worker and
// maintainer goroutines. The index must not be used after Close. Long-lived serving processes never need it;
// call it when building and discarding many indexes in one process.
func (x *ShardedIndex) Close() { x.s.Close() }

type neighborBuf struct{ ns []vecmath.Neighbor }

func (x *ShardedIndex) getBuf() *neighborBuf {
	if b, _ := x.bufs.Get().(*neighborBuf); b != nil {
		return b
	}
	return &neighborBuf{}
}

func (x *ShardedIndex) putBuf(b *neighborBuf) { x.bufs.Put(b) }

// Search returns the ids and squared L2 distances of the k approximate
// nearest neighbors of query, fanning out to every shard in parallel using
// the index's default search pool size.
func (x *ShardedIndex) Search(query []float32, k int) ([]int32, []float32) {
	return x.SearchWithPool(query, k, x.opts.Shard.SearchL)
}

// SearchWithPool is Search with an explicit per-shard pool size l (the
// paper's search parameter). Every shard is searched with the same l, so
// compared to a single NSG at equal l the merged candidate set is r times
// richer — recall at a given l is never meaningfully worse (the parity
// gate in the tests enforces this within 0.01).
//
// The only steady-state allocations are the two returned slices; fan-out
// scratch is drawn from the index's worker and buffer pools.
func (x *ShardedIndex) SearchWithPool(query []float32, k, l int) ([]int32, []float32) {
	return x.searchOne(query, k, l, nil, nil)
}

// SearchWithStats is SearchWithPool plus the merged per-shard work
// accounting: hops and distance computations are summed across all shard
// searches, i.e. the total work the shard group performed for this query.
func (x *ShardedIndex) SearchWithStats(query []float32, k, l int) (ids []int32, dists []float32, st SearchStats) {
	ids, dists = x.searchOne(query, k, l, nil, &st)
	return ids, dists, st
}

// SearchBatch answers many queries on workers concurrent callers
// (GOMAXPROCS when workers <= 0), each issuing the same shard fan-out as
// SearchWithPool with one merge buffer for its whole share of the batch.
// Every query's answer is byte-identical to its serial SearchWithPool call.
// Panics if any query's dimension does not match the index.
func (x *ShardedIndex) SearchBatch(queries [][]float32, k, l, workers int) []BatchResult {
	return x.SearchBatchFiltered(queries, k, l, workers, nil)
}

// searchOne is search with a merge buffer drawn from the index's pool.
func (x *ShardedIndex) searchOne(query []float32, k, l int, f *ShardedFilter, st *SearchStats) ([]int32, []float32) {
	b := x.getBuf()
	ids, dists := x.search(b, query, k, l, f, st)
	x.putBuf(b)
	return ids, dists
}

// search is the one fan-out every public ShardedIndex search runs: under f
// when it is non-nil, summing the shards' work into st when it is non-nil,
// merging into b's reused buffer and copying the answer into the two fresh
// caller-owned slices. A wrong-dimension query panics on the caller's
// goroutine (see distsearch.Sharded.Search).
func (x *ShardedIndex) search(b *neighborBuf, query []float32, k, l int, f *ShardedFilter, st *SearchStats) ([]int32, []float32) {
	var flt *distsearch.ShardedFilter
	if f != nil {
		flt = f.inner
	}
	var tally *distsearch.SearchStats
	if st != nil {
		tally = new(distsearch.SearchStats)
	}
	b.ns = x.s.Search(b.ns[:0], query, k, l, flt, tally)
	if st != nil {
		*st = SearchStats{Hops: tally.Hops, DistanceComputations: tally.DistComps}
	}
	return extractResults(b.ns)
}

// Add inserts a vector and returns its new global id. The vector is routed
// to the shard whose navigating node (its approximate medoid) is nearest.
// Add is non-blocking and safe from any goroutine: the point lands in the
// routed shard's delta buffer, is searchable the moment Add returns, and is
// folded into the graph by that shard's maintainer off the query path.
func (x *ShardedIndex) Add(vec []float32) (int32, error) {
	if len(vec) != x.Dim() {
		return -1, fmt.Errorf("nsg: vector dim %d != index dim %d", len(vec), x.Dim())
	}
	if !vecmath.Finite(vec) {
		return -1, ErrNonFinite
	}
	id, _, err := x.s.Insert(vec)
	return id, err
}

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
// index it was mapped from.
func (x *ShardedIndex) Save(path string) error {
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
	opts, err := decodeOptions(blob, s.Shards())
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("nsg: load %s: %w", path, err)
	}
	return newShardedIndex(s, opts), nil
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
	binary.LittleEndian.PutUint32(blob[0:], uint32(x.opts.Shard.GraphK))
	binary.LittleEndian.PutUint32(blob[4:], uint32(x.opts.Shard.BuildL))
	binary.LittleEndian.PutUint32(blob[8:], uint32(x.opts.Shard.MaxDegree))
	binary.LittleEndian.PutUint32(blob[12:], uint32(x.opts.Shard.SearchL))
	if x.opts.Shard.Quantize == QuantSQ8 {
		binary.LittleEndian.PutUint32(blob[16:], shardedOptQuantize)
	}
	return blob
}

// decodeOptions is the inverse of encodeOptions; zeroed fields take their
// defaults. A flags word with any bit it does not know, the reserved
// shardedOptInt4 among them, is an error.
func decodeOptions(blob []byte, shards int) (ShardedOptions, error) {
	opts := ShardedOptions{Shards: shards}
	flags := binary.LittleEndian.Uint32(blob[16:])
	if flags&^shardedOptQuantize != 0 {
		return opts, fmt.Errorf("unsupported sharded option flags %#x", flags)
	}
	opts.Shard = Options{
		GraphK:    int(binary.LittleEndian.Uint32(blob[0:])),
		BuildL:    int(binary.LittleEndian.Uint32(blob[4:])),
		MaxDegree: int(binary.LittleEndian.Uint32(blob[8:])),
		SearchL:   int(binary.LittleEndian.Uint32(blob[12:])),
		Quantize:  quantModeOf(flags&shardedOptQuantize != 0),
	}
	opts.Shard.fillDefaults()
	return opts, nil
}
