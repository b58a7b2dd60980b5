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
// SearchL knob (or the per-call SearchWithPool) trades time for recall.
//
// Indexes can be persisted with Save and re-opened with Load; vectors are
// stored alongside the graph so a loaded index is self-contained.
//
// # Search contexts and the zero-allocation hot path
//
// Queries traverse a fixed-stride flat copy of the graph (the contiguous
// layout the paper credits for its query throughput) and draw their scratch
// state — candidate pool, epoch-stamped visited array, result buffer — from
// a reused SearchContext instead of allocating per query. The simple API
// (Search, SearchWithPool, SearchBatch) manages contexts transparently
// through an internal sync.Pool, so on the steady state a query allocates
// nothing beyond the returned id/distance slices.
//
// The concurrency contract is: the index may be queried from any number of
// goroutines concurrently; each context is owned by one goroutine at a time
// (the pool enforces this for the simple API, and SearchBatch keeps one
// context per worker). Every mutable index accepts Add and Delete from any
// goroutine, concurrently with searches: queries read an immutable
// published snapshot plus a scanned delta buffer, and a background
// maintainer folds pending inserts into the graph off the query path. It
// runs only while added points wait to drain, so an index that is only
// searched runs no goroutine. EnableLiveUpdates only tunes its cadence.
// Close flushes the delta and stops the maintainer (a later Add starts it
// again). Compact, PromoteToHeap and Close replace or release
// serving state and must not run concurrently with other calls.
//
// For throughput-bound workloads prefer SearchBatch, which fans queries out
// across worker goroutines, each reusing one context for its whole share of
// the batch.
//
// # Sharded serving
//
// ShardedIndex scales the same machinery out the way the paper's largest
// deployments do (DEEP100M's 16 parallel subset NSGs, Taobao's 12/32
// partitions): the base set is partitioned, one NSG is built per shard in
// parallel, and every query fans out across a pool of persistent shard
// workers with results merged by distance. The sharded search path keeps
// the zero-allocation steady state, and cmd/nsgserve wraps it in an HTTP
// server. See ShardedIndex and EXPERIMENTS.md's "sharded" experiment.
package nsg

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/knngraph"
	"repro/internal/live"
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

// check rejects a mode other than QuantNone and QuantSQ8. Every builder
// calls it first, so an unknown value is an error rather than a silent
// choice of one path.
func (m QuantMode) check() error {
	if m != QuantNone && m != QuantSQ8 {
		return fmt.Errorf("nsg: unknown Quantize mode %d (want QuantNone or QuantSQ8)", int(m))
	}
	return nil
}

// quantModeOf is the mode of an index that is, or is not, quantized.
func quantModeOf(quantized bool) QuantMode {
	if quantized {
		return QuantSQ8
	}
	return QuantNone
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
	// MaxDegree caps every node's out-degree (the paper's m).
	MaxDegree int
	// SearchL is the default search pool size used by Search. Raise it for
	// higher recall, lower it for speed. Must be >= the k passed to Search
	// (it is promoted automatically if smaller).
	SearchL int
	// ExactKNN switches the intermediate kNN graph to the exact O(n²)
	// builder. Slower but deterministic; useful below ~5k points.
	ExactKNN bool
	// Quantize selects the compressed serving path: QuantNone (the zero
	// value) serves full float32 vectors; QuantSQ8 relayouts the graph into
	// BFS cache order after construction and compresses the vectors to one
	// code byte per dimension, cutting the bytes gathered per search hop
	// ~4x. Any other value makes the builders return an error.
	// Quantized searches expand over the codes and rerank the final
	// candidate pool with exact float32 distances, so returned distances
	// are always exact; the approximation costs a small amount of recall
	// at equal SearchL (see the README's "Quantized search" section).
	Quantize QuantMode
	// Seed makes randomized steps reproducible.
	Seed int64
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

// Index is a built NSG over a copy of the caller's vectors.
type Index struct {
	inner *core.NSG
	opts  Options
	build BuildStats
	// h owns all mutation and serving state: queries read its published
	// snapshot and delta, Add appends to its buffer, Delete publishes its
	// tombstones. Replaced only by Compact and PromoteToHeap.
	h *live.Handle
	// metaMu serializes AddWithMetadata's id assignment with its row write.
	metaMu sync.Mutex
	// ctxPool recycles per-goroutine search scratch so the simple API is
	// allocation-free on the steady state while staying safe to call from
	// any number of goroutines.
	ctxPool sync.Pool
}

// newIndex wraps a built, loaded, mapped or compacted NSG with its handle.
func newIndex(inner *core.NSG, opts Options, build BuildStats) *Index {
	x := &Index{inner: inner, opts: opts, build: build}
	x.h = live.New(inner, nil, nil, LiveOptions{}.internal(x.insertParams()))
	return x
}

// insertParams is what the maintainer inserts with: the build's degree cap
// and pool.
func (x *Index) insertParams() core.InsertParams {
	return core.InsertParams{M: x.opts.MaxDegree, L: x.opts.BuildL}
}

// BuildStats reports where construction time went, phase by phase: the
// intermediate kNN graph (NN-Descent or exact), then the four Algorithm 2
// phases. It is the instrumented view behind the paper's Table 2 indexing
// times; cmd/bench -exp build serializes it to BENCH_build.json so the
// build-performance trajectory is tracked across changes.
type BuildStats struct {
	KNNGraph        time.Duration // intermediate kNN-graph construction
	Navigate        time.Duration // medoid location (Algorithm 2 step ii)
	Collect         time.Duration // per-node search-collect-select (step iii)
	InterInsert     time.Duration // reverse-edge insertion
	Repair          time.Duration // DFS connectivity repair (step iv)
	Flatten         time.Duration // freezing the fixed-stride serving layout
	Total           time.Duration // whole Build call
	TreeRepairEdges int           // edges added by the DFS spanning repair
	TreePasses      int           // DFS passes until fully connected
}

// BuildStats returns the timing breakdown recorded when the index was
// built. Loaded indexes report a zero value.
func (x *Index) BuildStats() BuildStats { return x.build }

func (x *Index) getCtx() *core.SearchContext {
	if c, _ := x.ctxPool.Get().(*core.SearchContext); c != nil {
		return c
	}
	return core.NewSearchContext()
}

func (x *Index) putCtx(c *core.SearchContext) { x.ctxPool.Put(c) }

// ErrNonFinite is returned by Build, BuildFromFlat, the sharded builders
// and every Add when a vector has a NaN or infinite coordinate: distances to
// it would be NaN or +Inf, which no nearest-neighbor order can hold. A
// search for such a query answers empty, like one with k <= 0.
var ErrNonFinite = errors.New("nsg: vector has a NaN or infinite coordinate")

// Build indexes the given vectors. All vectors must share one dimension and
// there must be at least two of them.
func Build(vectors [][]float32, opts Options) (*Index, error) {
	if len(vectors) < 2 {
		return nil, fmt.Errorf("nsg: need at least 2 vectors, have %d", len(vectors))
	}
	opts.fillDefaults()
	base := vecmath.MatrixFromSlices(vectors)
	return buildFromMatrix(base, opts)
}

// BuildFromFlat indexes row-major flat data without copying per-row slices:
// data holds n*dim values. The matrix takes ownership of data.
func BuildFromFlat(data []float32, dim int, opts Options) (*Index, error) {
	if dim <= 0 || len(data)%dim != 0 {
		return nil, fmt.Errorf("nsg: data length %d not a multiple of dim %d", len(data), dim)
	}
	n := len(data) / dim
	if n < 2 {
		return nil, fmt.Errorf("nsg: need at least 2 vectors, have %d", n)
	}
	opts.fillDefaults()
	return buildFromMatrix(vecmath.Matrix{Data: data, Rows: n, Dim: dim}, opts)
}

func buildFromMatrix(base vecmath.Matrix, opts Options) (*Index, error) {
	if err := opts.Quantize.check(); err != nil {
		return nil, err
	}
	if !vecmath.Finite(base.Data) {
		return nil, ErrNonFinite
	}
	start := time.Now()
	kg, err := knngraph.BuildForNSG(base, opts.GraphK, opts.ExactKNN, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("nsg: kNN graph: %w", err)
	}
	knnTime := time.Since(start)
	g, cs, err := core.NSGBuild(kg, base, core.BuildParams{L: opts.BuildL, M: opts.MaxDegree, Seed: opts.Seed})
	if err != nil {
		return nil, fmt.Errorf("nsg: build: %w", err)
	}
	if opts.Quantize == QuantSQ8 {
		// Relayout first so codes are encoded directly in the serving
		// order; a nil quantizer trains the grid on the index's own base.
		g.Relayout()
		if err := g.EnableQuantization(nil); err != nil {
			return nil, fmt.Errorf("nsg: quantize: %w", err)
		}
	}
	return newIndex(g, opts, BuildStats{
		KNNGraph:        knnTime,
		Navigate:        cs.Phases.Navigate,
		Collect:         cs.Phases.Collect,
		InterInsert:     cs.Phases.InterInsert,
		Repair:          cs.Phases.Repair,
		Flatten:         cs.Phases.Flatten,
		Total:           time.Since(start),
		TreeRepairEdges: cs.TreeRepairEdges,
		TreePasses:      cs.TreePasses,
	}), nil
}

// Len returns the number of indexed vectors, pending ones included. Safe
// to call concurrently with Add.
func (x *Index) Len() int { return x.h.Len() }

// Dim returns the vector dimension.
func (x *Index) Dim() int { return x.inner.Base.Dim }

// Vector returns the stored vector with the given id. The returned slice
// aliases the index's storage; do not modify it.
func (x *Index) Vector(id int) []float32 {
	vec, _ := x.h.Vector(int32(id))
	return vec
}

// Quantized reports whether the index serves through a quantized search
// path (built with Options.Quantize or loaded from a quantized bundle).
func (x *Index) Quantized() bool { return x.inner.IsQuantized() }

// QuantMode returns the index's compressed serving mode (QuantNone when it
// serves full float32 vectors).
func (x *Index) QuantMode() QuantMode { return quantModeOf(x.inner.IsQuantized()) }

// Search returns the ids and squared L2 distances of the k approximate
// nearest neighbors of query, using the index's default search pool size.
func (x *Index) Search(query []float32, k int) ([]int32, []float32) {
	return x.SearchWithPool(query, k, x.opts.SearchL)
}

// SearchWithPool is Search with an explicit pool size l (the paper's search
// parameter): higher l gives higher recall and more work. l < k is promoted
// to k. Tombstoned ids (see Delete) are filtered from results.
//
// The only allocations on the steady state are the two returned slices;
// all traversal scratch is drawn from the index's context pool.
func (x *Index) SearchWithPool(query []float32, k, l int) ([]int32, []float32) {
	return x.SearchFilteredWithPool(query, k, l, nil)
}

// searchCtx is the one search every public entry point runs: through the
// handle's published snapshot and delta scan, under f when it is non-nil,
// tombstones in the pass test either way. The result aliases ctx.
func (x *Index) searchCtx(ctx *core.SearchContext, query []float32, k, l int, f *Filter, counter *vecmath.Counter) core.SearchResult {
	q := core.Query{K: k, L: l, Counter: counter}
	if f != nil {
		q.Filter = &f.inner
	}
	return x.h.Query(ctx, query, q)
}

// searchIntoFresh runs searchCtx and copies the context-owned result into
// fresh caller-owned slices.
func (x *Index) searchIntoFresh(ctx *core.SearchContext, query []float32, k, l int, f *Filter) ([]int32, []float32) {
	return extractResults(x.searchCtx(ctx, query, k, l, f, nil).Neighbors)
}

// extractResults copies a context-owned neighbor list into the two fresh
// caller-owned slices every public search returns.
func extractResults(res []vecmath.Neighbor) ([]int32, []float32) {
	ids := make([]int32, len(res))
	dists := make([]float32, len(res))
	for i, n := range res {
		ids[i] = n.ID
		dists[i] = n.Dist
	}
	return ids, dists
}

// Stats describes the built graph.
type Stats struct {
	N          int     // indexed vectors
	AvgDegree  float64 // average out-degree
	MaxDegree  int     // maximum out-degree
	IndexBytes int64   // graph footprint with fixed-stride rows
}

// Stats reports graph statistics. They describe the published snapshot
// (pending delta points join once drained) and are safe to read
// concurrently with serving.
func (x *Index) Stats() Stats {
	s := x.h.IndexStats()
	return Stats{N: s.N, AvgDegree: s.AvgDegree, MaxDegree: s.MaxDegree, IndexBytes: s.IndexBytes}
}

const fileMagic = 0x4e534742 // "NSGB" — bundled index+vectors format

// ErrUncompactedDeletes is returned by Save and SaveMapped on an index with
// deleted points. No file format stores tombstones, so the saved file would
// bring the deleted points back; call Compact first. No file is written.
var ErrUncompactedDeletes = errors.New("nsg: index has deleted points no file can keep; Compact before saving")

// Save writes the index, including its vectors, to path — crash-safely:
// the bundle streams into a temp file that is fsynced and renamed into
// place, so an interrupted save leaves the previous file intact rather
// than a truncated bundle. Stop issuing Adds and Deletes first: Save
// flushes the delta so the file captures every point; concurrent searches
// are fine. A mapped index returns ErrReadOnly (use SaveMapped), and an
// index with deleted points ErrUncompactedDeletes (Compact first).
func (x *Index) Save(path string) error {
	if x.inner.ReadOnly() {
		return fmt.Errorf("nsg: stream-saving a mapped index (use SaveMapped): %w", ErrReadOnly)
	}
	if x.DeletedCount() > 0 {
		return ErrUncompactedDeletes
	}
	x.Flush()
	return mstore.WriteFileAtomic(path, func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		hdr := make([]byte, 12)
		binary.LittleEndian.PutUint32(hdr[0:], fileMagic)
		binary.LittleEndian.PutUint32(hdr[4:], uint32(x.inner.Base.Rows))
		binary.LittleEndian.PutUint32(hdr[8:], uint32(x.inner.Base.Dim))
		if _, err := bw.Write(hdr); err != nil {
			return fmt.Errorf("nsg: write header: %w", err)
		}
		// Vectors are stored in public id order: the fast 64 KiB-chunked path
		// when ids are untouched, or row-streamed through the remap (without
		// copying the matrix) on a relayouted index — the core section carries
		// the remap table and restores the internal order on load.
		if !x.inner.Relaid() {
			if err := writeMatrix(bw, x.inner.Base); err != nil {
				return err
			}
		} else if err := writeMatrixRows(bw, x.inner.Base, func(r int) int32 {
			return x.inner.InternalID(int32(r))
		}); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("nsg: %w", err)
		}
		return x.inner.Write(w)
	})
}

// Load reopens an index written by Save.
func Load(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("nsg: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	hdr := make([]byte, 12)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("nsg: read header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != fileMagic {
		return nil, fmt.Errorf("nsg: %s is not an NSG bundle", path)
	}
	rows := int(binary.LittleEndian.Uint32(hdr[4:]))
	dim := int(binary.LittleEndian.Uint32(hdr[8:]))
	if rows <= 0 || dim <= 0 || rows > 1<<30 || dim > 1<<20 {
		return nil, fmt.Errorf("nsg: implausible shape %dx%d", rows, dim)
	}
	// Bound the header's claim against the file before allocating rows*dim
	// floats: a corrupt header must not turn into a giant allocation.
	if fi, err := f.Stat(); err == nil && fi.Size() < int64(rows)*int64(dim)*4 {
		return nil, fmt.Errorf("nsg: file holds %d bytes, too small for claimed %dx%d vectors", fi.Size(), rows, dim)
	}
	base, err := readMatrix(br, rows, dim)
	if err != nil {
		return nil, err
	}
	inner, err := core.ReadNSG(br, base)
	if err != nil {
		return nil, err
	}
	opts := DefaultOptions()
	// A quantized bundle carries its codes and scales, so the loaded index
	// serves through its quantized path immediately — no retraining — and
	// keeps Quantize set so a later Compact rebuilds the quantized state.
	opts.Quantize = quantModeOf(inner.IsQuantized())
	return newIndex(inner, opts, BuildStats{}), nil
}
