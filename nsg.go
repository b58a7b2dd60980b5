// Package nsg is the public API of this repository: a Go implementation of
// the Navigating Spreading-out Graph index for approximate nearest neighbor
// search (Fu, Xiang, Wang, Cai — "Fast Approximate Nearest Neighbor Search
// With The Navigating Spreading-out Graph", PVLDB 12, 2019).
//
// Quickstart:
//
//	vectors := [][]float32{...}          // your data, one row per point
//	index, err := nsg.Build(vectors, nsg.DefaultOptions())
//	if err != nil { ... }
//	ids, dists := index.Search(query, 10) // 10 approximate nearest neighbors
//
// Build constructs an approximate kNN graph with NN-Descent and then runs
// the paper's Algorithm 2 (navigating node, search-collect-select with the
// MRNG edge rule, DFS connectivity repair). Search runs the paper's
// Algorithm 1 greedy best-first search from the navigating node; the
// SearchL knob (or the per-call SearchParams.L of SearchWith) trades time
// for recall.
//
// Indexes are persisted with Save, in one format whatever their shard
// count, with their vectors, build options and metadata store, so a
// reopened index is self-contained. Load and OpenMapped serve the file in
// place through a memory mapping, and take writes like a built index.
//
// # Search contexts and the zero-allocation hot path
//
// Queries traverse the graph's compact CSR rows, one contiguous edge slab
// (the contiguous layout the paper credits for its query throughput), and
// draw their scratch
// state — candidate pool, epoch-stamped visited array, result buffer — from
// a reused SearchContext instead of allocating per query. The simple API
// (Search, SearchWith, SearchBatch) manages contexts transparently
// through an internal sync.Pool, so on the steady state a query allocates
// nothing beyond the returned id/distance slices, and SearchWith into
// reused destination buffers nothing at all.
//
// The concurrency contract is: the index may be queried from any number of
// goroutines concurrently; each context is owned by one goroutine at a time
// (the pool enforces this for the simple API, and SearchBatch keeps one
// context per worker). Every index accepts Add and Delete from any
// goroutine, concurrently with searches: queries read an immutable
// published snapshot plus a scanned delta buffer, and a background
// maintainer folds pending inserts into the graph off the query path. It
// runs only while added points wait to drain, so an index that is only
// searched runs no goroutine. EnableLiveUpdates only tunes its cadence.
// Close flushes the delta and stops the maintainer (see Close for what
// stays usable after it). Compact and Close replace or release serving
// state and must not run concurrently with other calls.
//
// For throughput-bound workloads prefer SearchBatch, which fans queries out
// across worker goroutines, each reusing one context for its whole share of
// the batch.
//
// # Sharded serving
//
// Options.Shards scales the same Index out the way the paper's largest
// deployments do (DEEP100M's 16 parallel subset NSGs, Taobao's 12/32
// partitions): the base set is partitioned, one NSG is built per shard in
// parallel, and every query fans out across a pool of persistent shard
// workers with results merged by distance. One shard is its simplest
// case: one type and one implementation serve both (ShardedIndex is an
// alias of Index). The search path keeps the zero-allocation steady
// state, and cmd/nsgserve wraps it in an HTTP server. See Index and
// EXPERIMENTS.md's "sharded" experiment. Options.Metric serves cosine
// and inner-product search from the same Euclidean graph (see Metric).
package nsg

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"repro/internal/mstore"
	"repro/internal/vecmath"
)

// QuantMode selects the compressed serving path an index traverses with.
// In every mode, returned distances are exact: the quantized modes expand
// the search over compact codes and rerank the final candidate pool with
// exact float32 distances, so the approximation only prices pool
// membership (a small recall cost at equal SearchL, recoverable by
// raising SearchL — see the README's "Quantized search" section).
type QuantMode int

const (
	// QuantNone serves from full float32 vectors.
	QuantNone QuantMode = iota
	// QuantSQ8 compresses to one code byte per dimension (~4x fewer bytes
	// gathered per search hop).
	QuantSQ8
)

// String returns the mode's wire name: "float32" or "sq8".
func (m QuantMode) String() string {
	switch m {
	case QuantNone:
		return "float32"
	case QuantSQ8:
		return "sq8"
	}
	return fmt.Sprintf("QuantMode(%d)", int(m))
}

// check rejects a mode other than QuantNone and QuantSQ8.
func (m QuantMode) check() error {
	if m != QuantNone && m != QuantSQ8 {
		return fmt.Errorf("nsg: unknown Quantize mode %d (want QuantNone or QuantSQ8)", int(m))
	}
	return nil
}

// Options controls index construction and default search behaviour.
type Options struct {
	// GraphK is the number of neighbors in the intermediate kNN graph
	// (the paper's k). Larger values improve graph quality at higher
	// indexing cost.
	GraphK int
	// BuildL is the candidate pool size for Algorithm 2's per-node search
	// (the paper's l).
	BuildL int
	// MaxDegree caps every node's out-degree (the paper's m). The one
	// exception is a connectivity-repair edge that no reachable candidate
	// under the cap could take; BuildStats().RepairOverCap counts those.
	MaxDegree int
	// SearchL is the default search pool size used by Search. Raise it for
	// higher recall, lower it for speed. Must be >= the k passed to Search
	// (it is promoted automatically if smaller).
	SearchL int
	// ExactKNN switches the intermediate kNN graph to the exact O(n²)
	// builder. Slower but deterministic; useful below ~5k points.
	ExactKNN bool
	// Quantize selects the compressed serving path (see QuantMode):
	// QuantNone, the zero value, or QuantSQ8, which encodes the relaid rows
	// to one code byte per dimension. Any other value makes the builders
	// return an error.
	Quantize QuantMode
	// Seed makes randomized steps reproducible.
	Seed int64
	// Shards is the number of partitions r, one NSG each (0 or 1: one).
	// The paper uses r = 16 (DEEP100M) and 12/32 (Taobao); at library
	// scale a few per core is the useful range. Shard s is seeded Seed + s.
	Shards int
	// Metric is the similarity searches rank by: L2 (the zero value),
	// Cosine or InnerProduct (see Metric). Any other value makes the
	// builders return an error.
	Metric Metric
}

// DefaultOptions returns settings that work well from a few thousand up to
// a few hundred thousand points.
func DefaultOptions() Options {
	return Options{GraphK: 20, BuildL: 50, MaxDegree: 30, SearchL: 60, Seed: 1}
}

func (o *Options) fillDefaults() {
	d := DefaultOptions()
	if o.GraphK <= 0 {
		o.GraphK = d.GraphK
	}
	if o.BuildL <= 0 {
		o.BuildL = d.BuildL
	}
	if o.MaxDegree <= 0 {
		o.MaxDegree = d.MaxDegree
	}
	if o.SearchL <= 0 {
		o.SearchL = d.SearchL
	}
}

// Index is a built NSG index over a copy of the caller's vectors: r =
// Options.Shards independent NSGs over a random partition of the base set,
// every query fanned out to all of them with results merged by distance.
// This is how the paper serves its largest workloads — DEEP100M as 16
// subset NSGs searched simultaneously (Figure 7) and the Taobao production
// deployment's 12- and 32-partition distributed search (Table 5) — with
// goroutines standing in for the paper's machines, and a single NSG is its
// one-shard case.
//
// Sharding trades a little per-query work (every shard is searched) for
// three things: build time (r small NSGs build faster than one big one, in
// parallel), tail latency (each shard's graph is shallower, and shard
// searches overlap on separate cores), and operational ceiling (shards are
// the unit you would distribute across processes or hosts).
//
// Any number of goroutines may query concurrently, and Add and Delete are
// safe concurrently with searches and with each other. The caller of a
// search runs one shard itself, and on more than one shard a pool of
// persistent shard-worker goroutines, one warm SearchContext per worker,
// takes the others, so a steady-state Search allocates nothing beyond the
// two returned result slices, and SearchWith into reused buffers nothing
// at all. Call Close when discarding an index before process exit so
// those workers and the shard maintainers are released.
type Index struct {
	s    *sharded // the shards and everything that serves them; Compact swaps it
	opts Options  // builds, inserts, default searches and the metric
	// metaMu serializes AddWithMetadata's id assignment with its row write.
	metaMu sync.Mutex
	// bufs recycles merge destination and query buffers, so a
	// steady-state search allocates nothing beyond the slices it returns.
	bufs sync.Pool
}

// ShardedIndex is the name Index had when a sharded index was a type of
// its own; see Index.
type ShardedIndex = Index

// BuildStats reports where construction time went, phase by phase: the
// intermediate kNN graph (NN-Descent or exact), then the four Algorithm 2
// phases, each summed over the shards. Total is the wall time of the whole
// build; shards build in parallel, so on more than one shard the sums may
// exceed it. It is the instrumented view behind the paper's Table 2
// indexing times; cmd/bench -exp build serializes it to BENCH_build.json.
// See Index.BuildStats.
type BuildStats struct {
	KNNGraph        time.Duration // intermediate kNN-graph construction
	Navigate        time.Duration // medoid location (Algorithm 2 step ii)
	Collect         time.Duration // per-node search-collect-select (step iii)
	InterInsert     time.Duration // reverse-edge insertion
	Repair          time.Duration // DFS connectivity repair (step iv)
	Flatten         time.Duration // laying the graph out in CSR rows
	Total           time.Duration // the whole build
	TreeRepairEdges int           // edges added by the DFS spanning repair
	TreePasses      int           // DFS passes until fully connected
	// RepairOverCap counts repair edges that took a row past MaxDegree,
	// because no reachable candidate the repair's search found was under it.
	RepairOverCap int
}

// ErrNonFinite is returned by the builders and every Add when a vector has a NaN or infinite coordinate: distances to
// it would be NaN or +Inf, which no nearest-neighbor order can hold. A
// search for such a query answers empty, like one with k <= 0.
var ErrNonFinite = errors.New("nsg: vector has a NaN or infinite coordinate")

// Build indexes the given vectors: one NSG, or opts.Shards of them over a
// random near-equal partition (the paper partitions "randomly and
// evenly"), built in parallel. All vectors must share one dimension and
// there must be at least two of them.
func Build(vectors [][]float32, opts Options) (*Index, error) {
	if len(vectors) < 2 {
		return nil, fmt.Errorf("nsg: need at least 2 vectors, have %d", len(vectors))
	}
	return build(vecmath.MatrixFromSlices(vectors), opts)
}

// BuildFromFlat is Build over row-major flat data without per-row slices:
// data holds n*dim values. The index copies the rows and keeps no
// reference to data; ids are the caller's row numbers, and Vector(id)
// returns row id.
func BuildFromFlat(data []float32, dim int, opts Options) (*Index, error) {
	if dim <= 0 || len(data)%dim != 0 {
		return nil, fmt.Errorf("nsg: data length %d not a multiple of dim %d", len(data), dim)
	}
	n := len(data) / dim
	if n < 2 {
		return nil, fmt.Errorf("nsg: need at least 2 vectors, have %d", n)
	}
	return build(vecmath.Matrix{Data: data, Rows: n, Dim: dim}, opts)
}

// build checks and completes the options every builder takes, maps base
// into the metric's space, then runs buildShards, the one build pipeline.
func build(base vecmath.Matrix, opts Options) (*Index, error) {
	if err := errors.Join(opts.Quantize.check(), opts.Metric.check()); err != nil {
		return nil, err
	}
	if !vecmath.Finite(base.Data) {
		return nil, ErrNonFinite
	}
	opts.fillDefaults()
	s, err := buildShards(opts.Metric.indexSpace(base), opts, max(opts.Shards, 1))
	if err != nil {
		return nil, fmt.Errorf("nsg: build: %w", err)
	}
	return newIndex(s, opts), nil
}

// Stats describes the built graphs.
type Stats struct {
	N          int     // vectors in the published snapshots
	AvgDegree  float64 // average out-degree over every shard's rows
	MaxDegree  int     // maximum out-degree
	IndexBytes int64   // bytes the shards' graphs hold: per shard 4(n+1) + 4·edges (offsets and edge slab)
	Shards     int     // partition count
	ShardSizes []int   // vectors per shard, pending ones included
}

// Stats reports graph statistics, aggregated over the shards. The graph
// figures describe the published snapshots (pending delta points join once
// drained) and are safe to read concurrently with serving.
func (x *Index) Stats() Stats {
	st := Stats{Shards: len(x.s.handles), ShardSizes: make([]int, len(x.s.handles))}
	edges := 0.0
	for sh, h := range x.s.handles {
		st.ShardSizes[sh] = h.Len()
		s := h.IndexStats()
		st.N += s.N
		edges += math.Round(s.AvgDegree * float64(s.N)) // the shard's edge count
		st.MaxDegree = max(st.MaxDegree, s.MaxDegree)
		st.IndexBytes += s.IndexBytes
	}
	if st.N > 0 {
		st.AvgDegree = edges / float64(st.N)
	}
	return st
}

// ErrUncompactedDeletes is returned by Save while the index has deleted
// points. No file format stores tombstones, so the saved file would bring
// the deleted points back; call Compact first. No file is written.
var ErrUncompactedDeletes = errors.New("nsg: index has deleted points no file can keep; Compact before saving")

// Save writes the index, including its vectors, build options and metadata
// store, to path — crash-safely: the file streams into a temp file that is
// fsynced and renamed into place, so an interrupted save leaves the
// previous file intact rather than a truncated one. The file is the one
// layout every index writes (see container.go): per shard, an id map plus
// a complete aligned record (adjacency, vectors, codes), all behind
// checksummed tables, then the metadata store when one is attached.
// Load and OpenMapped serve it in place without decoding. Stop issuing
// Adds and Deletes first: Save flushes the delta so the file captures
// every point, and pads the metadata store with missing rows for points
// added without one (plain Add); concurrent searches are fine. A mapped
// index writes the bytes the index it was mapped from would, and may save
// over its own file: the rename leaves the mapped file intact, so the
// index keeps answering from it until Close.
func (x *Index) Save(path string) error {
	if x.DeletedCount() > 0 {
		return ErrUncompactedDeletes
	}
	x.Flush()
	x.metaMu.Lock() // no AddWithMetadata between the padding and the write
	defer x.metaMu.Unlock()
	if m := x.s.meta; m != nil && m.Rows() < x.Len() {
		if err := m.SetRow(x.Len()-1, nil); err != nil {
			return fmt.Errorf("nsg: pad metadata: %w", err)
		}
	}
	return mstore.WriteFileAtomic(path, func(w io.Writer) error { return x.write(w) })
}

// Load reopens an index written by Save — by any index, of any shard count
// — restoring the options it was built with (its metric among them), so
// Add, Compact and default searches behave as on the original index, and
// its metadata store. It is
// OpenMapped with the default MapOptions: the checksums are verified (a
// damaged file fails with an error IsCorrupt recognises), and the index
// serves the file in place until Close. A file in a layout older builds
// wrote (a stream, or a one-NSG "NSGM" record) is refused with an error
// naming its layout.
func Load(path string) (*Index, error) {
	x, err := open(path, MapOptions{})
	if err != nil {
		return nil, fmt.Errorf("nsg: load %s: %w", path, err)
	}
	return x, nil
}

// LoadSharded is Load; see Load.
func LoadSharded(path string) (*ShardedIndex, error) { return Load(path) }
