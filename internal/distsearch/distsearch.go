// Package distsearch implements partitioned ("distributed") NSG search: the
// base set is split into r shards, an independent NSG is built per shard,
// and a query fans out to every shard in parallel with results merged by
// distance. This is the deployment pattern of the paper's DEEP100M
// experiment (NSG-16core: 16 subset NSGs searched simultaneously, Figure 7)
// and the Taobao production system (12- and 32-partition distributed
// search, Table 5). The paper's MPI machines become goroutines; the
// measured quantity — single-query response time at a target precision —
// is preserved.
//
// A single index is the r = 1 case: every nsg.Index is a Sharded, and a
// one-shard Sharded behaves exactly as the lone NSG it holds.
//
// The serving path follows the repository's zero-allocation discipline:
// the caller of a fan-out searches one shard itself, with the
// core.SearchContext of its pooled fanScratch, and hands the other shards
// to a pool of persistent shard-worker goroutines, each holding one
// context for its lifetime. Per-query fan state (per-shard result buffers,
// merge buffer, per-shard hop/distance tallies) is drawn from a sync.Pool
// of fanScratch values. On the steady state a fan-out search allocates
// nothing; a one-shard index starts no worker and its searches never touch
// the task channel. Search exposes that path with a caller-owned
// destination buffer, and package nsg builds the public API on top of it.
package distsearch

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graphutil"
	"repro/internal/knngraph"
	"repro/internal/live"
	"repro/internal/meta"
	"repro/internal/mstore"
	"repro/internal/vecmath"
	"repro/internal/vecmath/quant"
)

// Sharded is a collection of per-partition NSG indexes over one logical
// base set, plus the worker pool that fans queries across them.
//
// The shards hold the only copy of each vector. A global id reaches its row
// through loc, and a shard row reaches its global id through its handle's
// translate table.
type Sharded struct {
	dim    int
	shards []*core.NSG

	// Every shard is served and grown through its live handle (see live.go):
	// searches read its published snapshot plus pending delta, and Insert
	// routes a vector to one shard's delta by the frozen navigating-node
	// vectors. mu serializes global id allocation and guards loc; n is the
	// global row count, readable without it.
	handles []*live.Handle
	navVec  [][]float32
	mu      sync.Mutex
	loc     []slot
	n       atomic.Int64

	// Meta is the optional metadata column store, keyed by GLOBAL id (row g
	// describes base vector g). It is deliberately not sharded: predicates
	// compile once into one global bitmap, which NewFilter scatters into
	// each shard's own ids.
	Meta *meta.Store

	// stats is the build's timing breakdown (zero for a loaded or mapped
	// index).
	stats BuildStats

	// tasks feeds the persistent shard workers; each worker owns one
	// SearchContext for its lifetime, so fan-out searches reuse warm
	// scratch instead of allocating per query. nil on a one-shard index,
	// which runs no worker.
	tasks     chan shardTask
	closeOnce sync.Once
	scratch   sync.Pool // *fanScratch

	// mapped is the container a mapped index serves from (see mapped.go),
	// released by Close.
	mapped *mstore.File
}

// slot locates one global id: its shard and its local public id there.
type slot struct{ shard, local int32 }

// Params configures BuildSharded.
type Params struct {
	Shards int
	KNNK   int // k for each shard's kNN graph
	Build  core.BuildParams
	// UseNNDescent selects the approximate kNN builder (the at-scale path);
	// false uses the exact builder.
	UseNNDescent bool
	// Quantize selects the SQ8 serving path on every shard: one quantizer
	// is trained on the full base matrix (not per shard, so all shards
	// share identical scales and their merged distances are comparable),
	// and each shard is encoded with it after the BFS relayout every shard
	// build ends with.
	Quantize bool
	Seed     int64
}

// DefaultParams returns settings for test-scale sharded experiments.
func DefaultParams(shards int) Params {
	return Params{Shards: shards, KNNK: 15, Build: core.DefaultBuildParams(), UseNNDescent: true, Seed: 1}
}

// SearchStats reports the work one query performed, for capacity planning
// and parameter tuning: Hops is the number of greedy expansions (the
// paper's path length l in its o·l cost model) and DistanceComputations
// the number of distance evaluations, each summed across the shard
// searches — the total work the "machine group" performed for the query.
type SearchStats struct {
	Hops                 int
	DistanceComputations uint64
}

// BuildStats reports where construction time went, phase by phase: the
// intermediate kNN graph (NN-Descent or exact), then the four Algorithm 2
// phases, each summed over the shards. Total is the wall time of the whole
// build; shards build in parallel, so on more than one shard the sums may
// exceed it. It is the instrumented view behind the paper's Table 2
// indexing times; cmd/bench -exp build serializes it to BENCH_build.json.
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

// add accumulates one shard's build: its kNN graph time and Algorithm 2's.
func (b *BuildStats) add(knn time.Duration, cs core.BuildStats) {
	b.KNNGraph += knn
	b.Navigate += cs.Phases.Navigate
	b.Collect += cs.Phases.Collect
	b.InterInsert += cs.Phases.InterInsert
	b.Repair += cs.Phases.Repair
	b.Flatten += cs.Phases.Flatten
	b.TreeRepairEdges += cs.TreeRepairEdges
	b.TreePasses += cs.TreePasses
	b.RepairOverCap += cs.RepairOverCap
}

// buildShard copies out the rows ids names (ascending global ids) and
// builds their NSG through the one build pipeline: kNN graph, Algorithm 2,
// BFS relayout into cache order. qz, non-nil iff p.Quantize, is the
// quantizer trained once on the full base matrix: the relaid shard is
// encoded with those shared scales instead of retraining per shard. The
// grid is per-dimension min/max, so a one-shard index encodes exactly as
// one trained on its own rows would.
func buildShard(base vecmath.Matrix, ids []int32, p Params, sh int, qz *quant.Quantizer) (*core.NSG, time.Duration, core.BuildStats, error) {
	sub := vecmath.NewMatrix(len(ids), base.Dim)
	for j, g := range ids {
		copy(sub.Row(j), base.Row(int(g)))
	}
	start := time.Now()
	knn, err := knngraph.BuildForNSG(sub, p.KNNK, !p.UseNNDescent, p.Seed+int64(sh))
	if err != nil {
		return nil, 0, core.BuildStats{}, fmt.Errorf("distsearch: shard %d kNN graph: %w", sh, err)
	}
	knnTime := time.Since(start)
	bp := p.Build
	bp.Seed = p.Seed + int64(sh)
	idx, cs, err := core.NSGBuild(knn, sub, bp)
	if err != nil {
		return nil, 0, cs, fmt.Errorf("distsearch: shard %d NSG: %w", sh, err)
	}
	idx.Relayout()
	if qz != nil {
		if err := idx.EnableQuantization(qz); err != nil {
			return nil, 0, cs, fmt.Errorf("distsearch: shard %d quantize: %w", sh, err)
		}
	}
	return idx, knnTime, cs, nil
}

// BuildSharded randomly partitions base into p.Shards near-equal subsets
// (the paper partitions "randomly and evenly") and builds one NSG per
// shard; base is copied into the shards and not kept. Each shard holds its
// rows in ascending global-id order, so a one-shard build is the identity
// partition: the single index's build, graph for graph. Shard builds run
// in parallel (graphutil.ParallelFor caps them at GOMAXPROCS); each
// shard's seed is derived from p.Seed, so the result is identical to a
// sequential build.
func BuildSharded(base vecmath.Matrix, p Params) (*Sharded, error) {
	start := time.Now()
	if p.Shards <= 0 {
		return nil, fmt.Errorf("distsearch: shards must be positive, got %d", p.Shards)
	}
	if base.Rows < 2 || (p.Shards > 1 && base.Rows < p.Shards*4) {
		return nil, fmt.Errorf("distsearch: %d points cannot fill %d shards", base.Rows, p.Shards)
	}
	if p.Quantize && base.Dim > quant.MaxDim {
		return nil, fmt.Errorf("distsearch: dimension %d exceeds the SQ8 int32-accumulation limit %d", base.Dim, quant.MaxDim)
	}
	perm := rand.New(rand.NewSource(p.Seed)).Perm(base.Rows)
	per := (base.Rows + p.Shards - 1) / p.Shards
	var ids [][]int32
	for lo := 0; lo < base.Rows; lo += per {
		span := make([]int32, 0, per)
		for _, g := range perm[lo:min(lo+per, base.Rows)] {
			span = append(span, int32(g))
		}
		slices.Sort(span)
		ids = append(ids, span)
	}

	// One quantizer training pass for the whole build: trained on the full
	// matrix before the fan-out, shared read-only by every shard's encode.
	var qz *quant.Quantizer
	if p.Quantize {
		q := quant.Train(base)
		qz = &q
	}

	s := &Sharded{dim: base.Dim, shards: make([]*core.NSG, len(ids))}
	errs := make([]error, len(ids))
	var mu sync.Mutex
	graphutil.ParallelFor(len(ids), func(sh int) {
		idx, knn, cs, err := buildShard(base, ids[sh], p, sh, qz)
		s.shards[sh], errs[sh] = idx, err
		mu.Lock()
		s.stats.add(knn, cs)
		mu.Unlock()
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if err := s.start(ids, base.Rows); err != nil {
		return nil, err
	}
	s.stats.Total = time.Since(start)
	return s, nil
}

// Shard returns shard sh's NSG, the graph its handle serves as published.
func (s *Sharded) Shard(sh int) *core.NSG { return s.shards[sh] }

// BuildStats returns the build's timing breakdown: BuildSharded's, or that
// of the rebuild a Compact returned. A loaded or mapped index reports zero.
func (s *Sharded) BuildStats() BuildStats { return s.stats }

// start builds the locator from the shards' id maps (ids[sh][j] is the
// global id of shard sh's row j), attaches one live handle per shard, which
// takes its id map as its translate table, freezes the routing vectors and
// spawns the persistent fan-out pool, each worker owning one SearchContext.
// The id map of a one-shard index is the identity (nil, or every id in
// place), and that shard keeps no translate table: its ids and the global
// ids coincide, filters included.
//
// The locator build is the partition check: every global id in [0, rows)
// must appear in exactly one id map, so a build and an open both reject
// maps that do not partition the rows, before any goroutine starts.
//
// The caller of a fan-out searches one shard itself, so the pool holds at
// least one worker per other shard (the paper's one-machine-per-partition
// deployment, so a single query always fans out fully) and at least
// GOMAXPROCS workers, so concurrent queries on an index with few shards
// still use every core. A one-shard index starts none. Workers live until
// Close.
func (s *Sharded) start(ids [][]int32, rows int) error {
	if len(ids) == 1 && isIdentity(ids[0]) {
		ids[0] = nil
	}
	s.loc = make([]slot, rows)
	seen := make([]bool, rows)
	covered := 0
	for sh, m := range ids {
		if m == nil {
			for j := range min(rows, s.shards[sh].Base.Rows) {
				s.loc[j] = slot{int32(sh), int32(j)}
			}
			covered += s.shards[sh].Base.Rows
			continue
		}
		for j, g := range m {
			if g < 0 || int(g) >= rows || seen[g] {
				return fmt.Errorf("global id %d of shard %d row %d is out of range [0,%d) or repeated", g, sh, j, rows)
			}
			seen[g] = true
			s.loc[g] = slot{int32(sh), int32(j)}
		}
		covered += len(m)
	}
	if covered != rows {
		return fmt.Errorf("shards cover %d of %d rows", covered, rows)
	}
	s.handles = make([]*live.Handle, len(s.shards))
	s.navVec = make([][]float32, len(s.shards))
	for sh, idx := range s.shards {
		// Navigating nodes never change under inserts. A copy, not a row
		// slice: growth moves the rows, and a slice would keep the old
		// array (a whole base copy) alive, or point into a mapping.
		s.navVec[sh] = slices.Clone(idx.Base.Row(int(idx.Navigating)))
		s.handles[sh] = live.New(idx, ids[sh], nil, live.Options{})
	}
	s.n.Store(int64(rows))
	if len(s.shards) > 1 {
		workers := max(len(s.shards)-1, runtime.GOMAXPROCS(0))
		s.tasks = make(chan shardTask, 2*workers)
		for w := 0; w < workers; w++ {
			go s.worker()
		}
	}
	return nil
}

// isIdentity reports whether m maps every row to its own index.
func isIdentity(m []int32) bool {
	for j, g := range m {
		if g != int32(j) {
			return false
		}
	}
	return true
}

// Close flushes and stops the per-shard maintainers — flushing first so
// every acknowledged insert reaches its shard graph and id map (a Save
// after Close stays consistent) — and, the first time, terminates the
// worker pool and releases the file mapping. An index of more than one
// shard must not be searched after Close. A heap one-shard index has no
// worker and stays usable (a later Insert starts its maintainer again); a
// mapped one must not be used once its mapping is released. Build and
// serving code that discards a Sharded should call it so the goroutines do
// not outlive the index.
func (s *Sharded) Close() {
	for _, h := range s.handles {
		h.Close()
	}
	s.closeOnce.Do(func() {
		if s.tasks != nil {
			close(s.tasks)
		}
		if s.mapped != nil {
			s.mapped.Close()
			s.mapped = nil
		}
	})
}

// Shards returns the number of partitions.
func (s *Sharded) Shards() int { return len(s.shards) }

// Dim returns the vector dimension.
func (s *Sharded) Dim() int { return s.dim }

// Quantized reports whether the shards serve through a quantized path (all
// shards share one quantization state, so the first speaks for all).
func (s *Sharded) Quantized() bool {
	return len(s.shards) > 0 && s.shards[0].IsQuantized()
}

// ShardSizes returns the number of vectors in each shard: its published
// snapshot plus its pending delta.
func (s *Sharded) ShardSizes() []int {
	sizes := make([]int, len(s.handles))
	for i, h := range s.handles {
		sizes[i] = h.Len()
	}
	return sizes
}

// shardTask asks a worker to search one shard on behalf of one query's fan
// state. Tasks are plain values sent over a buffered channel, so enqueueing
// does not allocate.
type shardTask struct {
	f     *fanScratch
	shard int
}

// fanScratch is one query's fan-out state: per-shard result buffers (global
// ids), per-shard work tallies, the merge buffer, and the search context
// and counter the caller searches its own shard with. Instances are pooled
// on the Sharded index and grow to steady-state sizes, after which a
// fan-out search performs zero heap allocations.
type fanScratch struct {
	owner *Sharded
	query []float32
	k, l  int
	stats bool
	wg    sync.WaitGroup
	bufs  [][]vecmath.Neighbor
	hops  []int
	comps []uint64
	// merged is the concatenate-sort-truncate buffer for combining the
	// per-shard lists.
	merged []vecmath.Neighbor
	// flt non-nil marks this fan as filtered: shard sh searches under its
	// own slice of it (see ShardedFilter).
	flt     *ShardedFilter
	ctx     *core.SearchContext
	counter vecmath.Counter
}

func (s *Sharded) getScratch() *fanScratch {
	if f, _ := s.scratch.Get().(*fanScratch); f != nil {
		return f
	}
	return &fanScratch{
		owner: s,
		bufs:  make([][]vecmath.Neighbor, len(s.shards)),
		hops:  make([]int, len(s.shards)),
		comps: make([]uint64, len(s.shards)),
		ctx:   core.NewSearchContext(),
	}
}

func (s *Sharded) putScratch(f *fanScratch) {
	f.query, f.flt = nil, nil
	s.scratch.Put(f)
}

// run executes one shard search with ctx through the shard's handle —
// under the shard's own bitmap when the fan is filtered (never called for
// zero-count shards; Search skips them) — into the fan state's per-shard
// buffer, and records the shard's work tallies when stats were requested.
// The handle tests rows in the shard's ids, so rows it gained after the
// filter was compiled fail closed, and emits global ids. The copy out of
// ctx is what makes it safe for a worker to move on to another task (and
// reuse ctx) immediately.
func (f *fanScratch) run(ctx *core.SearchContext, counter *vecmath.Counter, sh int) {
	q := core.Query{K: f.k, L: f.l}
	if f.stats {
		counter.Reset()
		q.Counter = counter
	}
	if f.flt != nil {
		q.Filter = &f.flt.shards[sh]
	}
	res := f.owner.handles[sh].Query(ctx, f.query, q)
	f.bufs[sh] = append(f.bufs[sh][:0], res.Neighbors...)
	if f.stats {
		f.hops[sh] = res.Hops
		f.comps[sh] = counter.Count()
	}
}

func (s *Sharded) worker() {
	ctx := core.NewSearchContext()
	var counter vecmath.Counter
	for t := range s.tasks {
		t.f.run(ctx, &counter, t.shard)
		t.f.wg.Done()
	}
}

// MergeInto combines per-shard candidate lists (already carrying global
// ids) into the k nearest overall and appends them to dst. Shards partition
// the id space, so ids are unique and a sort suffices — no dedupe
// structure. The (dist, id) order matches vecmath.MergeNeighborLists, so
// both merges answer byte-identically.
//
// scratch is a reusable concatenation buffer (nil is fine); the possibly
// grown buffer is returned alongside the result so callers can pool it.
// This is the exact merge the in-process fan-out performs, exported so
// remote serving tiers (internal/cluster's router merging per-shard
// responses received over the network) produce byte-identical answers to a
// single process holding the same shards.
func MergeInto(dst, scratch []vecmath.Neighbor, k int, lists [][]vecmath.Neighbor) (res, grown []vecmath.Neighbor) {
	m := scratch[:0]
	for _, b := range lists {
		m = append(m, b...)
	}
	slices.SortFunc(m, vecmath.CompareNeighbors)
	if len(m) > k {
		m = m[:k]
	}
	dst = append(dst, m...)
	return dst, m[:0]
}

// Search fans the query out to every shard in parallel, translates local
// ids to global ids, merges by distance and appends the k nearest to dst
// (pass a reused buffer truncated to [:0]). The caller's goroutine searches
// the last scheduled shard itself; workers take the others. Under a
// non-nil flt each shard tests its rows against its slice of the filter,
// and shards with no passing rows are never scheduled; a non-nil st
// receives the hops and distance computations summed across the shard
// searches. With a warm destination buffer the steady state performs zero
// heap allocations; this is the serving entry point package nsg wraps.
//
// A query whose dimension does not match the index panics here, on the
// caller's goroutine: past this point a mismatch would panic on a shard
// worker, where no caller could recover it. k <= 0 answers nothing, and
// so does a query with a NaN or infinite coordinate.
func (s *Sharded) Search(dst []vecmath.Neighbor, vec []float32, k, l int, flt *ShardedFilter, st *SearchStats) []vecmath.Neighbor {
	if len(vec) != s.dim {
		panic(fmt.Sprintf("distsearch: query dim %d != index dim %d", len(vec), s.dim))
	}
	if st != nil {
		*st = SearchStats{}
	}
	if k <= 0 || !vecmath.Finite(vec) || (flt != nil && flt.Count == 0) {
		return dst
	}
	f := s.getScratch()
	f.query, f.k, f.l, f.stats, f.flt = vec, k, l, st != nil, flt
	own := -1 // the shard this goroutine searches itself
	for sh := range s.shards {
		// Pooled scratch: drop a skipped shard's stale results and tallies.
		f.bufs[sh], f.hops[sh], f.comps[sh] = f.bufs[sh][:0], 0, 0
		if flt != nil && flt.shards[sh].Count == 0 {
			continue // no passing rows: the shard is never searched
		}
		if own >= 0 {
			f.wg.Add(1)
			s.tasks <- shardTask{f: f, shard: own}
		}
		own = sh
	}
	if own >= 0 {
		f.run(f.ctx, &f.counter, own)
	}
	f.wg.Wait()
	if len(s.shards) == 1 {
		dst = append(dst, f.bufs[0]...) // one list is already the answer
	} else {
		dst, f.merged = MergeInto(dst, f.merged, k, f.bufs)
	}
	if st != nil {
		for sh := range s.shards {
			st.Hops += f.hops[sh]
			st.DistanceComputations += f.comps[sh]
		}
	}
	s.putScratch(f)
	return dst
}

// IndexStats describes shard sh's published snapshot.
func (s *Sharded) IndexStats(sh int) core.IndexStats { return s.handles[sh].IndexStats() }

// IndexBytes sums the per-shard index footprints of the published
// snapshots.
func (s *Sharded) IndexBytes() int64 {
	var total int64
	for sh := range s.handles {
		total += s.IndexStats(sh).IndexBytes
	}
	return total
}
