package nsg

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/meta"
	"repro/internal/mstore"
	"repro/internal/vecmath"
)

// sharded is what an Index serves from and what Compact replaces as one:
// the per-partition NSGs, their live handles, the locator, the metadata
// store, the fan-out worker pool and the file a mapped index serves from.
//
// The shards hold the only copy of each vector. A global id reaches its row
// through loc, and a shard row reaches its global id through its handle's
// translate table.
//
// The serving path follows the repository's zero-allocation discipline:
// the caller of a fan-out searches one shard itself, with the
// core.SearchContext of its pooled fanScratch, and hands the other shards
// to a pool of persistent shard-worker goroutines, each holding one
// context for its lifetime. Per-query fan state (per-shard result buffers,
// merge buffer, per-shard hop/distance tallies) is drawn from a sync.Pool
// of fanScratch values. On the steady state a fan-out search allocates
// nothing; a one-shard index starts no worker and its searches never touch
// the task channel.
type sharded struct {
	dim    int
	shards []*core.NSG

	// Every shard is served and grown through its live handle: searches
	// read its published snapshot plus pending delta, and Add routes a
	// vector to one shard's delta by the frozen navigating-node vectors. mu
	// serializes global id allocation and guards loc; n is the global row
	// count, readable without it.
	handles []*live.Handle
	navVec  [][]float32
	mu      sync.Mutex
	loc     []slot
	n       atomic.Int64

	// meta is the optional metadata column store, keyed by GLOBAL id (row g
	// describes base vector g). It is deliberately not sharded: predicates
	// compile once into one global bitmap, which CompileFilter scatters
	// into each shard's own ids.
	meta *meta.Store

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

	// mapped is the container a mapped index serves from (see
	// container.go), released by Close.
	mapped *mstore.File
}

// slot locates one global id: its shard and its local public id there.
type slot struct{ shard, local int32 }

// newIndex attaches a built or reopened shard set, handing its shard
// maintainers the insert parameters of opts.
func newIndex(s *sharded, opts Options) *Index {
	x := &Index{s: s, opts: opts}
	x.bufs.New = func() any { return new(neighborBuf) }
	s.setLive(LiveOptions{}.internal(x.insertParams()))
	return x
}

// insertParams is what the maintainers insert with: the build's degree cap
// and pool.
func (x *Index) insertParams() core.InsertParams {
	return core.InsertParams{M: x.opts.MaxDegree, L: x.opts.BuildL}
}

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
func (s *sharded) start(ids [][]int32, rows int) error {
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
		s.handles[sh] = live.New(idx, ids[sh], live.Options{})
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

// BuildStats returns the timing breakdown recorded when the index was
// built, or, after a Compact that dropped points, of that Compact's
// rebuild. Phases are summed over the shards, and Total is the wall time.
// Loaded and mapped indexes report a zero value.
func (x *Index) BuildStats() BuildStats { return x.s.stats }

// Len returns the number of indexed vectors, pending ones included. Safe
// to call concurrently with Add.
func (x *Index) Len() int { return int(x.s.n.Load()) }

// Dim returns the dimension of the caller's vectors (an InnerProduct
// index stores one coordinate more).
func (x *Index) Dim() int {
	if x.opts.Metric == InnerProduct {
		return x.s.dim - 1
	}
	return x.s.dim
}

// Shards returns the number of partitions.
func (x *Index) Shards() int { return len(x.s.shards) }

// Vector returns the stored vector with the given id, or nil for an id
// outside [0, Len()): the caller's row, normalized under Cosine. The
// returned slice aliases the index's storage — on an index opened with
// Load or OpenMapped, the file mapping, which Close and Compact release —
// so do not modify it or keep it past those calls. It is read from the
// id's shard through the locator: the shard's published snapshot once the
// row has drained, its delta buffer before. Safe to call concurrently with
// Add.
func (x *Index) Vector(id int) []float32 {
	row := x.row(id)
	if row == nil {
		return nil
	}
	return row[:x.Dim()]
}

// row is Vector in index space: an InnerProduct row keeps its augmented
// coordinate.
func (x *Index) row(id int) []float32 {
	l, ok := x.s.locate(id)
	if !ok {
		return nil
	}
	vec, _ := x.s.handles[l.shard].Vector(l.local) // a located row is always visible
	return vec
}

// Quantized reports whether the index serves through a quantized search
// path (built with Options.Quantize or loaded from a quantized file).
func (x *Index) Quantized() bool { return x.s.shards[0].IsQuantized() }

// QuantMode returns the index's compressed serving mode (QuantNone when it
// serves full float32 vectors; all shards share one quantization state, so
// the first speaks for all).
func (x *Index) QuantMode() QuantMode {
	if x.Quantized() {
		return QuantSQ8
	}
	return QuantNone
}

// Close flushes pending Adds, so no point is lost, and stops the
// maintainer goroutines. A one-shard index runs no other goroutine: a
// built one stays usable after Close (a later Add starts its maintainer
// again), while a reopened one releases its file mapping and must not be
// used afterwards. An index of more than one shard also releases its shard
// workers and must not be used after Close; long-lived serving processes
// never need it, but code that builds and discards many indexes in one
// process should call it. Do not call while other goroutines are still
// using the index.
func (x *Index) Close() { x.s.close() }

// close flushes and stops the per-shard maintainers — flushing first so
// every acknowledged insert reaches its shard graph and id map (a Save
// after Close stays consistent) — and, the first time, terminates the
// worker pool and releases the file mapping.
func (s *sharded) close() {
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

// SearchStats reports the work one query performed, for capacity planning
// and parameter tuning: Hops is the number of greedy expansions (the
// paper's path length l in its o·l cost model) and DistanceComputations the
// number of distance evaluations, each summed across the shard searches —
// the total work the "machine group" performed for the query.
type SearchStats struct {
	Hops                 int
	DistanceComputations uint64
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
// on the shard set and grow to steady-state sizes, after which a fan-out
// search performs zero heap allocations.
type fanScratch struct {
	owner *sharded
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
	// flt non-empty marks this fan as filtered: shard sh searches under
	// flt[sh], a copy of its slice of the Filter (see Index.search on
	// escapes).
	flt     []core.Filter
	ctx     *core.SearchContext
	counter vecmath.Counter
}

func (s *sharded) getScratch() *fanScratch {
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

func (s *sharded) putScratch(f *fanScratch) {
	clear(f.flt) // drop the bitmaps
	f.query, f.flt = nil, f.flt[:0]
	s.scratch.Put(f)
}

// run executes one shard search with ctx through the shard's handle —
// under the shard's own bitmap when the fan is filtered (never called for
// zero-count shards; search skips them) — into the fan state's per-shard
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
	if len(f.flt) > 0 {
		q.Filter = &f.flt[sh]
	}
	res := f.owner.handles[sh].Query(ctx, f.query, q)
	f.bufs[sh] = append(f.bufs[sh][:0], res.Neighbors...)
	if f.stats {
		f.hops[sh] = res.Hops
		f.comps[sh] = counter.Count()
	}
}

func (s *sharded) worker() {
	ctx := core.NewSearchContext()
	var counter vecmath.Counter
	for t := range s.tasks {
		t.f.run(ctx, &counter, t.shard)
		t.f.wg.Done()
	}
}

// search fans the query out to every shard in parallel, translates local
// ids to global ids, merges by distance and appends the k nearest to dst
// (pass a reused buffer truncated to [:0]), each of r > 1 shards with a
// pool of max(k, ⌈l/r⌉). The caller's goroutine searches
// the last scheduled shard itself; workers take the others. Under a
// non-nil flt each shard tests its rows against its slice of the filter,
// and shards with no passing rows are never scheduled; a non-nil st
// receives the hops and distance computations summed across the shard
// searches. With a warm destination buffer the steady state performs zero
// heap allocations. k <= 0 answers nothing, and so does a query with a NaN
// or infinite coordinate; the caller has checked vec's dimension.
func (s *sharded) search(dst []vecmath.Neighbor, vec []float32, k, l int, flt *Filter, st *SearchStats) []vecmath.Neighbor {
	if st != nil {
		*st = SearchStats{}
	}
	if k <= 0 || !vecmath.Finite(vec) || (flt != nil && flt.count == 0) {
		return dst
	}
	if r := len(s.shards); r > 1 {
		l = max(k, (l+r-1)/r)
	}
	f := s.getScratch()
	f.query, f.k, f.l, f.stats = vec, k, l, st != nil
	if flt != nil {
		f.flt = append(f.flt, flt.shards...)
	}
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
		dst, f.merged = vecmath.MergeInto(dst, f.merged, k, f.bufs)
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

// neighborBuf is one search's reused scratch: the merge destination and,
// under a metric other than L2, the query mapped into index space.
type neighborBuf struct {
	ns []vecmath.Neighbor
	q  []float32
}

// SearchParams are the per-call settings of SearchWith. The zero value is
// Search's: the index's SearchL, no filter, no work accounting and fresh
// result slices.
type SearchParams struct {
	// L is the query's whole pool budget, the paper's search parameter
	// (<= 0 takes SearchL; L < k is promoted to k). Each of r > 1 shards
	// searches with max(k, ⌈L/r⌉), so a sharded query costs about one.
	L int
	// Filter, when non-nil, keeps only the points passing it: a shard
	// scans its passing rows exactly while they are few and walks the
	// graph with only passing points in its pool past that (see the
	// README's "Filtered search"). Fewer than k results mean fewer than k
	// points pass.
	Filter *Filter
	// Stats, when non-nil, receives the hops and distance computations
	// summed across the shard searches (an exact scan makes 0 hops). A
	// Stats declared per call moves to the heap when the answer outlives
	// the call; one reused from call to call keeps the search
	// allocation-free.
	Stats *SearchStats
	// IDs and Dists, when they have room for the answer, receive it in
	// place of fresh slices: a steady-state search into reused buffers
	// allocates nothing.
	IDs   []int32
	Dists []float32
}

// SearchWith returns the ids and distances of the k approximate nearest
// neighbors of query under p, best first: squared L2 distances, or under
// Cosine and InnerProduct the cosine or the dot product. Tombstoned ids
// (see Delete) never appear in results. A query whose dimension is not
// Dim() panics; k <= 0 answers nothing, and so does a query with a NaN or
// infinite coordinate.
func (x *Index) SearchWith(query []float32, k int, p SearchParams) ([]int32, []float32) {
	return x.searchOne(query, k, p.L, p.Filter, p.Stats, p.IDs, p.Dists)
}

// Search is SearchWith with the index's default search pool size.
func (x *Index) Search(query []float32, k int) ([]int32, []float32) {
	return x.SearchWith(query, k, SearchParams{})
}

// SearchWithPool is SearchWith with pool budget l.
func (x *Index) SearchWithPool(query []float32, k, l int) ([]int32, []float32) {
	return x.searchOne(query, k, l, nil, nil, nil, nil)
}

// SearchWithStats is SearchWithPool plus per-query work accounting.
func (x *Index) SearchWithStats(query []float32, k, l int) (ids []int32, dists []float32, st SearchStats) {
	ids, dists = x.searchOne(query, k, l, nil, &st, nil, nil)
	return ids, dists, st
}

// SearchFilteredWithPool is SearchWithPool under filter f (nil: none).
func (x *Index) SearchFilteredWithPool(query []float32, k, l int, f *Filter) ([]int32, []float32) {
	return x.searchOne(query, k, l, f, nil, nil, nil)
}

// searchOne is search with scratch drawn from the index's pool.
func (x *Index) searchOne(query []float32, k, l int, f *Filter, st *SearchStats, ids []int32, dists []float32) ([]int32, []float32) {
	b := x.bufs.Get().(*neighborBuf)
	ids, dists = x.search(b, query, k, l, f, st, ids, dists)
	x.bufs.Put(b)
	return ids, dists
}

// search is the one search every public entry point runs, with b's reused
// buffers: the query mapped into the metric's space, the shard fan-out,
// and the answer copied into ids and dists (fresh slices when they are
// short) and rescored in the caller's metric. It takes SearchParams'
// fields one by one: escape analysis does not tell a struct's fields
// apart, so a stats pointer beside the returned buffers would escape. A
// wrong-dimension query panics here, on the caller's goroutine: past this
// point it would panic on a shard worker, where no caller could recover
// it.
func (x *Index) search(b *neighborBuf, query []float32, k, l int, f *Filter, st *SearchStats, ids []int32, dists []float32) ([]int32, []float32) {
	if len(query) != x.Dim() {
		panic(fmt.Sprintf("nsg: query dim %d != index dim %d", len(query), x.Dim()))
	}
	if l <= 0 {
		l = x.opts.SearchL
	}
	q, m := query, x.opts.Metric
	if m != L2 {
		b.q = m.appendQuery(b.q[:0], query)
		q = b.q
	}
	b.ns = x.s.search(b.ns[:0], q, k, l, f, st)
	ids, dists = resize(ids, len(b.ns)), resize(dists, len(b.ns))
	for i, n := range b.ns {
		ids[i], dists[i] = n.ID, n.Dist
	}
	if m != L2 {
		x.rescore(query, ids, dists)
	}
	return ids, dists
}

// resize returns buf at length n, reusing its storage when it has room.
func resize[T any](buf []T, n int) []T {
	if buf == nil || cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
