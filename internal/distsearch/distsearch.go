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
	"math"
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
type Sharded struct {
	Base    vecmath.Matrix
	shards  []*core.NSG
	localID [][]int32 // localID[s][j] = global id of shard s's row j

	// Meta is the optional metadata column store, keyed by GLOBAL id (row g
	// describes base vector g). It is deliberately not sharded: predicates
	// compile once into one global bitmap, and each shard tests its rows
	// through its localID table, so all shards share one filter compilation.
	Meta *meta.Store

	// tasks feeds the persistent shard workers; each worker owns one
	// SearchContext for its lifetime, so fan-out searches reuse warm
	// scratch instead of allocating per query.
	tasks     chan shardTask
	closeOnce sync.Once
	scratch   sync.Pool // *fanScratch

	// Live-update state (see live.go): one handle per shard plus frozen
	// routing vectors once EnableLive ran, published through an atomic
	// pointer so enabling is safe while searches are in flight; liveMu
	// serializes global id allocation and base growth between writers.
	live   atomic.Pointer[liveState]
	liveMu sync.Mutex
	liveN  atomic.Int64

	// Mapped-mode state (see mapped.go): a read-only index opened from an
	// aligned container. Base.Data is nil — each shard's vectors live in
	// its embedded record — and vector lookups go through the lazily built
	// id-map inverse.
	ro      bool
	mapped  *mstore.File
	locOnce sync.Once
	loc     *shardLocator
}

// liveState bundles what a live search or routed insert needs, immutable
// once published.
type liveState struct {
	handles []*live.Handle
	navVec  [][]float32 // per-shard navigating-node vectors (write-once rows)
}

// Params configures BuildSharded.
type Params struct {
	Shards int
	KNNK   int // k for each shard's kNN graph
	Build  core.BuildParams
	// UseNNDescent selects the approximate kNN builder (the at-scale path);
	// false uses the exact builder.
	UseNNDescent bool
	// Quantize selects the compressed serving path on every shard (SQ8 or
	// packed int4): one quantizer is trained on the full base matrix (not
	// per shard, so all shards share identical scales and their merged
	// distances are comparable), then each shard is relayouted into BFS
	// cache order and encoded.
	Quantize quant.Mode
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

// buildShard partitions out one shard's rows and builds its NSG. perm is
// the global random permutation; the shard owns rows perm[lo:hi]. qz or
// qz4 (at most one non-nil, matching p.Quantize) is the quantizer trained
// once on the full base matrix: the shard is relayouted into BFS cache
// order and encoded with those shared scales instead of retraining per
// shard.
func buildShard(base vecmath.Matrix, perm []int, lo, hi int, p Params, sh int, qz *quant.Quantizer, qz4 *quant.Quantizer4) (*core.NSG, []int32, error) {
	ids := make([]int32, hi-lo)
	sub := vecmath.NewMatrix(hi-lo, base.Dim)
	for j, pi := range perm[lo:hi] {
		ids[j] = int32(pi)
		copy(sub.Row(j), base.Row(pi))
	}
	var knn *graphutil.Graph
	var err error
	k := p.KNNK
	if k >= sub.Rows {
		k = sub.Rows - 1
	}
	if p.UseNNDescent {
		kp := knngraph.DefaultParams(k)
		kp.Seed = p.Seed + int64(sh)
		knn, err = knngraph.BuildNNDescent(sub, kp)
	} else {
		knn, err = knngraph.BuildExact(sub, k)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("distsearch: shard %d kNN graph: %w", sh, err)
	}
	bp := p.Build
	bp.Seed = p.Seed + int64(sh)
	idx, _, err := core.NSGBuild(knn, sub, bp)
	if err != nil {
		return nil, nil, fmt.Errorf("distsearch: shard %d NSG: %w", sh, err)
	}
	switch {
	case qz4 != nil:
		idx.Relayout()
		if err := idx.EnableQuantization4(qz4); err != nil {
			return nil, nil, fmt.Errorf("distsearch: shard %d quantize: %w", sh, err)
		}
	case qz != nil:
		idx.Relayout()
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
	var qz4 *quant.Quantizer4
	switch p.Quantize {
	case quant.ModeSQ8:
		q := quant.Train(base)
		qz = &q
	case quant.ModeInt4:
		q := quant.Train4(base)
		qz4 = &q
	}

	shards := make([]*core.NSG, len(spans))
	localID := make([][]int32, len(spans))
	errs := make([]error, len(spans))
	graphutil.ParallelFor(len(spans), func(sh int) {
		shards[sh], localID[sh], errs[sh] = buildShard(base, perm, spans[sh].lo, spans[sh].hi, p, sh, qz, qz4)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	s := &Sharded{Base: base, shards: shards, localID: localID}
	s.startWorkers()
	return s, nil
}

// startWorkers spawns the persistent fan-out pool, each worker owning one
// SearchContext. The pool holds at least one worker per shard (the paper's
// one-machine-per-partition deployment, so a single query always fans out
// fully) and at least GOMAXPROCS workers, so concurrent queries on an
// index with few shards still use every core instead of being capped at
// r in-flight shard searches. Workers live until Close.
func (s *Sharded) startWorkers() {
	workers := len(s.shards)
	if p := runtime.GOMAXPROCS(0); p > workers {
		workers = p
	}
	s.tasks = make(chan shardTask, 2*workers)
	for w := 0; w < workers; w++ {
		go s.worker()
	}
}

// Close terminates the worker pool and, on a live index, flushes and stops
// the per-shard maintainers — flushing first so every acknowledged insert
// reaches its shard graph and id map (a Save after Close stays
// consistent). The index must not be searched after Close; build/serving
// code that discards a Sharded should call it so the goroutines do not
// outlive the index.
func (s *Sharded) Close() {
	s.closeOnce.Do(func() {
		s.Flush()
		close(s.tasks)
		if ls := s.live.Load(); ls != nil {
			for _, h := range ls.handles {
				h.Close()
			}
		}
		if s.mapped != nil {
			s.mapped.Close()
			s.mapped = nil
		}
	})
}

// Shards returns the number of partitions.
func (s *Sharded) Shards() int { return len(s.shards) }

// Quantized reports whether the shards serve through a quantized path (all
// shards share one quantization state, so the first speaks for all).
func (s *Sharded) Quantized() bool {
	return len(s.shards) > 0 && s.shards[0].IsQuantized()
}

// QuantMode returns the shards' quantization scheme (ModeNone when they
// serve full float32 vectors).
func (s *Sharded) QuantMode() quant.Mode {
	if len(s.shards) == 0 {
		return quant.ModeNone
	}
	return s.shards[0].QuantMode()
}

// ShardSizes returns the number of vectors in each shard. On a live index
// a shard's size counts its published snapshot plus its pending delta.
func (s *Sharded) ShardSizes() []int {
	sizes := make([]int, len(s.shards))
	for i := range s.shards {
		if h := s.liveHandle(i); h != nil {
			sizes[i] = h.Len()
		} else {
			sizes[i] = s.shards[i].Base.Rows
		}
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
	// flt non-nil marks this fan as filtered: each shard searches under
	// flt.per[shard].
	flt *ShardedFilter
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
	}
}

func (s *Sharded) putScratch(f *fanScratch) {
	f.query, f.flt = nil, nil
	s.scratch.Put(f)
}

// run executes one shard search with ctx: search the shard — under its
// per-shard filter view when the fan is filtered (never called for
// zero-count shards; Search skips them) — translate local ids to global ids
// into the fan state's per-shard buffer, and record the shard's work
// tallies when stats were requested. The translation copy is what makes it
// safe for a worker to move on to another task (and reuse ctx) immediately.
func (f *fanScratch) run(ctx *core.SearchContext, counter *vecmath.Counter, sh int) {
	s := f.owner
	q := core.Query{K: f.k, L: f.l}
	if f.stats {
		counter.Reset()
		q.Counter = counter
	}
	if f.flt != nil {
		q.Filter = &f.flt.per[sh]
	}
	buf := f.bufs[sh][:0]
	var res core.SearchResult
	if h := s.liveHandle(sh); h != nil {
		// Live path: the handle searches its published snapshot plus the
		// shard's pending delta and already emits global ids, so no
		// per-result translation here. Its translate table — which grows
		// with every drain, past any local bitmap — is also how it reads a
		// filter, so a live shard searches under the global bitmap.
		if q.Filter != nil {
			q.Filter = &core.Filter{Bits: f.flt.Bits, Count: q.Filter.Count}
		}
		res = h.Query(ctx, f.query, q)
		buf = append(buf, res.Neighbors...)
	} else {
		res = s.shards[sh].Query(ctx, f.query, q)
		ids := s.localID[sh]
		for _, n := range res.Neighbors {
			buf = append(buf, vecmath.Neighbor{ID: ids[n.ID], Dist: n.Dist})
		}
	}
	if f.stats {
		f.hops[sh] = res.Hops
		f.comps[sh] = counter.Count()
	}
	f.bufs[sh] = buf
}

// liveHandle returns shard sh's live handle, or nil when live updates are
// not enabled.
func (s *Sharded) liveHandle(sh int) *live.Handle {
	ls := s.live.Load()
	if ls == nil {
		return nil
	}
	return ls.handles[sh]
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
// searches under its own rows' bits, and shards with no passing rows are
// never scheduled; a non-nil st receives the hops and distance
// computations summed across the shard searches. With a warm destination
// buffer the steady state performs zero heap allocations; this is the
// serving entry point nsg.ShardedIndex wraps.
//
// A query whose dimension does not match the index panics here, on the
// caller's goroutine: past this point a mismatch would panic on a shard
// worker, where no caller could recover it. k <= 0 answers nothing, and
// so does a query with a NaN or infinite coordinate.
func (s *Sharded) Search(dst []vecmath.Neighbor, vec []float32, k, l int, flt *ShardedFilter, st *SearchStats) []vecmath.Neighbor {
	if len(vec) != s.Base.Dim {
		panic(fmt.Sprintf("distsearch: query dim %d != index dim %d", len(vec), s.Base.Dim))
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
		if flt != nil && flt.per[sh].Count == 0 {
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

// Route returns the shard that would receive an inserted copy of vec: the
// one whose navigating node (the shard's approximate medoid) is nearest.
// Random partitions give near-identical medoids, so routing by medoid
// approximates routing by load while keeping locality for clustered data.
func (s *Sharded) Route(vec []float32) int {
	best, bestD := 0, float32(math.Inf(1))
	for sh, idx := range s.shards {
		d := vecmath.L2(vec, idx.Base.Row(int(idx.Navigating)))
		if d < bestD {
			best, bestD = sh, d
		}
	}
	return best
}

// Insert adds vec under a new global id, routing it to the shard returned
// by Route and running that shard's incremental insertion (search-collect,
// MRNG selection, reverse offers). Only the receiving shard's flat serving
// layout is invalidated — the other shards keep serving their frozen
// layouts untouched. Returns the new global id and the shard it landed in.
// Not safe for concurrent use with Search.
func (s *Sharded) Insert(vec []float32, p core.InsertParams) (int32, int, error) {
	if s.ro {
		return -1, -1, core.ErrReadOnly
	}
	if len(vec) != s.Base.Dim {
		return -1, -1, fmt.Errorf("distsearch: insert dim %d != index dim %d", len(vec), s.Base.Dim)
	}
	sh := s.Route(vec)
	if _, err := s.shards[sh].Insert(vec, p); err != nil {
		return -1, -1, err
	}
	gid := int32(s.Base.Rows)
	s.Base.Data = append(s.Base.Data, vec...)
	s.Base.Rows++
	s.localID[sh] = append(s.localID[sh], gid)
	return gid, sh, nil
}

// IndexBytes sums the per-shard index footprints. On a live index the
// figures come from the published snapshots' frozen flat layouts.
func (s *Sharded) IndexBytes() int64 {
	var total int64
	for i, sh := range s.shards {
		if h := s.liveHandle(i); h != nil {
			total += h.IndexStats().IndexBytes
		} else {
			total += sh.IndexBytes()
		}
	}
	return total
}
