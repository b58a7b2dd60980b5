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
// The serving path follows the repository's zero-allocation discipline:
// every Sharded index owns a pool of persistent shard-worker goroutines,
// each holding one core.SearchContext for its lifetime, and per-query fan
// state (per-shard result buffers, merge buffer, per-shard hop/distance
// tallies) is drawn from a sync.Pool of fanScratch values. On the steady
// state a fan-out search allocates nothing; Search exposes that path with a
// caller-owned destination buffer, and nsg.ShardedIndex builds the public
// API on top of it.
package distsearch

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
	// compile once into one global bitmap, and each shard tests its rows
	// through its handle's translate table, so all shards share one filter
	// compilation.
	Meta *meta.Store

	// tasks feeds the persistent shard workers; each worker owns one
	// SearchContext for its lifetime, so fan-out searches reuse warm
	// scratch instead of allocating per query.
	tasks     chan shardTask
	closeOnce sync.Once
	scratch   sync.Pool // *fanScratch

	// mapped is the container a read-only index serves from (see mapped.go),
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

// SearchStats aggregates the per-shard work of one fan-out query: hops and
// distance computations are summed across shards, which is the total work
// the "machine group" performed for the query (the paper's o·l cost model
// applied per partition).
type SearchStats struct {
	Hops      int    // greedy expansions, summed over shards
	DistComps uint64 // exact distance evaluations, summed over shards
}

// buildShard partitions out one shard's rows and builds its NSG through
// the single index's pipeline: kNN graph, Algorithm 2, BFS relayout into
// cache order. perm is the global random permutation; the shard owns rows
// perm[lo:hi]. qz, non-nil iff p.Quantize, is the quantizer trained once on
// the full base matrix: the relaid shard is encoded with those shared
// scales instead of retraining per shard.
func buildShard(base vecmath.Matrix, perm []int, lo, hi int, p Params, sh int, qz *quant.Quantizer) (*core.NSG, []int32, error) {
	ids := make([]int32, hi-lo)
	sub := vecmath.NewMatrix(hi-lo, base.Dim)
	for j, pi := range perm[lo:hi] {
		ids[j] = int32(pi)
		copy(sub.Row(j), base.Row(pi))
	}
	knn, err := knngraph.BuildForNSG(sub, p.KNNK, !p.UseNNDescent, p.Seed+int64(sh))
	if err != nil {
		return nil, nil, fmt.Errorf("distsearch: shard %d kNN graph: %w", sh, err)
	}
	bp := p.Build
	bp.Seed = p.Seed + int64(sh)
	idx, _, err := core.NSGBuild(knn, sub, bp)
	if err != nil {
		return nil, nil, fmt.Errorf("distsearch: shard %d NSG: %w", sh, err)
	}
	idx.Relayout()
	if qz != nil {
		if err := idx.EnableQuantization(qz); err != nil {
			return nil, nil, fmt.Errorf("distsearch: shard %d quantize: %w", sh, err)
		}
	}
	return idx, ids, nil
}

// BuildSharded randomly partitions base into p.Shards near-equal subsets
// (the paper partitions "randomly and evenly") and builds one NSG per
// shard. Shard builds run in parallel (graphutil.ParallelFor caps them at
// GOMAXPROCS); each shard's seed is derived from p.Seed, so the result is
// identical to a sequential build. Every shard reuses the scratch-pooled
// construction pipeline (NN-Descent slabs, per-worker SearchContexts).
func BuildSharded(base vecmath.Matrix, p Params) (*Sharded, error) {
	if p.Shards <= 0 {
		return nil, fmt.Errorf("distsearch: shards must be positive, got %d", p.Shards)
	}
	if base.Rows < p.Shards*4 {
		return nil, fmt.Errorf("distsearch: %d points cannot fill %d shards", base.Rows, p.Shards)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	perm := rng.Perm(base.Rows)

	per := (base.Rows + p.Shards - 1) / p.Shards
	type bounds struct{ lo, hi int }
	var spans []bounds
	for sh := 0; sh < p.Shards; sh++ {
		lo := sh * per
		hi := lo + per
		if hi > base.Rows {
			hi = base.Rows
		}
		if lo >= hi {
			break
		}
		spans = append(spans, bounds{lo, hi})
	}

	// One quantizer training pass for the whole build: trained on the full
	// matrix before the fan-out, shared read-only by every shard's encode.
	var qz *quant.Quantizer
	if p.Quantize {
		q := quant.Train(base)
		qz = &q
	}

	shards := make([]*core.NSG, len(spans))
	ids := make([][]int32, len(spans))
	errs := make([]error, len(spans))
	graphutil.ParallelFor(len(spans), func(sh int) {
		shards[sh], ids[sh], errs[sh] = buildShard(base, perm, spans[sh].lo, spans[sh].hi, p, sh, qz)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	s := &Sharded{dim: base.Dim, shards: shards}
	if err := s.start(ids, base.Rows); err != nil {
		return nil, err
	}
	return s, nil
}

// start builds the locator from the shards' id maps (ids[sh][j] is the
// global id of shard sh's row j), attaches one live handle per shard, which
// takes its id map as its translate table, freezes the routing vectors and
// spawns the persistent fan-out pool, each worker owning one SearchContext.
//
// The locator build is the partition check: every global id in [0, rows)
// must appear in exactly one id map, so a build, a stream load and a mapped
// open all reject maps that do not partition the rows, before any goroutine
// starts.
//
// The pool holds at least one worker per shard (the paper's
// one-machine-per-partition deployment, so a single query always fans out
// fully) and at least GOMAXPROCS workers, so concurrent queries on an
// index with few shards still use every core instead of being capped at
// r in-flight shard searches. Workers live until Close.
func (s *Sharded) start(ids [][]int32, rows int) error {
	s.loc = make([]slot, rows)
	seen := make([]bool, rows)
	covered := 0
	for sh, m := range ids {
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
		// Navigating nodes never change under inserts, and rows are
		// write-once, so these slices stay valid while the shards grow.
		s.navVec[sh] = idx.Base.Row(int(idx.Navigating))
		s.handles[sh] = live.New(idx, ids[sh], nil, live.Options{})
	}
	s.n.Store(int64(rows))
	workers := max(len(s.shards), runtime.GOMAXPROCS(0))
	s.tasks = make(chan shardTask, 2*workers)
	for w := 0; w < workers; w++ {
		go s.worker()
	}
	return nil
}

// Close terminates the worker pool and flushes and stops the per-shard
// maintainers — flushing first so every acknowledged insert
// reaches its shard graph and id map (a Save after Close stays
// consistent). The index must not be searched after Close; build/serving
// code that discards a Sharded should call it so the goroutines do not
// outlive the index.
func (s *Sharded) Close() {
	s.closeOnce.Do(func() {
		s.Flush()
		close(s.tasks)
		for _, h := range s.handles {
			h.Close()
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
// ids), per-shard work tallies, and the merge buffer. Instances are pooled
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
	// flt non-nil marks this fan as filtered: shard sh searches under
	// filters[sh], the global bitmap with that shard's passing count.
	flt     *ShardedFilter
	filters []core.Filter
}

func (s *Sharded) getScratch() *fanScratch {
	if f, _ := s.scratch.Get().(*fanScratch); f != nil {
		return f
	}
	return &fanScratch{
		owner:   s,
		bufs:    make([][]vecmath.Neighbor, len(s.shards)),
		hops:    make([]int, len(s.shards)),
		comps:   make([]uint64, len(s.shards)),
		filters: make([]core.Filter, len(s.shards)),
	}
}

func (s *Sharded) putScratch(f *fanScratch) {
	f.query, f.flt = nil, nil
	s.scratch.Put(f)
}

// run executes one shard search with ctx through the shard's handle —
// under the global bitmap when the fan is filtered (never called for
// zero-count shards; Search skips them) — into the fan state's per-shard
// buffer, and records the shard's work tallies when stats were requested.
// The handle emits global ids and tests the bitmap through its translate
// table, so rows the shard gained after the filter was compiled fail
// closed. The copy out of ctx is what makes it safe for a worker to move on
// to another task (and reuse ctx) immediately.
func (f *fanScratch) run(ctx *core.SearchContext, counter *vecmath.Counter, sh int) {
	q := core.Query{K: f.k, L: f.l}
	if f.stats {
		counter.Reset()
		q.Counter = counter
	}
	if f.flt != nil {
		f.filters[sh] = core.Filter{Bits: f.flt.Bits, Count: f.flt.counts[sh]}
		q.Filter = &f.filters[sh]
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
// (pass a reused buffer truncated to [:0]). Under a non-nil flt each shard
// tests its rows against the global bitmap, and shards with no passing rows
// are never scheduled; a non-nil st receives the hops and distance
// computations summed across the shard searches. With a warm destination
// buffer the steady state performs zero heap allocations; this is the
// serving entry point nsg.ShardedIndex wraps.
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
	for sh := range s.shards {
		// Pooled scratch: drop a skipped shard's stale results and tallies.
		f.bufs[sh], f.hops[sh], f.comps[sh] = f.bufs[sh][:0], 0, 0
		if flt != nil && flt.counts[sh] == 0 {
			continue // no passing rows: the shard is never searched
		}
		f.wg.Add(1)
		s.tasks <- shardTask{f: f, shard: sh}
	}
	f.wg.Wait()
	dst, f.merged = MergeInto(dst, f.merged, k, f.bufs)
	if st != nil {
		for sh := range s.shards {
			st.Hops += f.hops[sh]
			st.DistComps += f.comps[sh]
		}
	}
	s.putScratch(f)
	return dst
}

// IndexBytes sums the per-shard index footprints of the published
// snapshots.
func (s *Sharded) IndexBytes() int64 {
	var total int64
	for _, h := range s.handles {
		total += h.IndexStats().IndexBytes
	}
	return total
}
