// Package live implements non-blocking live updates for an NSG index: the
// snapshot + delta-buffer architecture incremental graph systems use
// (HNSW-style serving, cf. Malkov & Yashunin 2016) so streaming inserts
// coexist with heavy read traffic instead of serializing against it.
//
// The moving parts:
//
//   - Queries serve from an immutable published core.Snapshot — CSR
//     adjacency, base vectors, quantization codes — reached through one atomic
//     pointer load. The read path takes no lock and keeps the repository's
//     zero-allocation SearchContext discipline.
//   - Append (the non-blocking insert) copies the vector into a small
//     append-only delta buffer and returns. Queries brute-force scan the
//     delta with the batched vecmath/quant kernels and merge it into the
//     candidate pool, so a point is searchable the moment Append returns,
//     with exact distances.
//   - A background maintainer drains the delta through the existing
//     Algorithm 2 incremental-insert path (core.NSG.Insert), and atomically
//     publishes a fresh snapshot that includes the drained points — at
//     which point they leave the scan path. A published graph is never
//     written: the batch's first insert unpacks it into adjacency lists
//     over a copy of its edge slab, the batch edits those lists, and the
//     publish lays them out as a fresh CSR. It runs only while rows wait
//     to drain, so a handle that is never written runs
//     no goroutine and costs its queries one atomic load.
//
// Epochs and retirement: every publish installs a new immutable view;
// in-flight queries keep whatever view they loaded, and a retired view
// (its snapshot, delta slab and tombstone set) is reclaimed by the garbage
// collector once the last straddling query drops it. A query therefore
// sees either the old or the new snapshot in full — never a torn mix —
// and publication requires no reader coordination at all.
//
// Writers (Append, Delete) serialize on one mutex among themselves; they
// never block queries, and queries never block them. The maintainer holds
// that mutex only long enough to cut or publish — the graph insertion work
// runs outside it.
package live

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/vecmath"
	"repro/internal/vecmath/quant"
)

// Options tunes the maintainer's drain and publish cadence.
type Options struct {
	// MaxPending is the delta depth that triggers an immediate drain
	// (default 512). Until it is hit, the maintainer waits up to Interval,
	// batching insertions so the per-batch copy and layout of the graph
	// amortize.
	MaxPending int
	// Interval bounds how long an appended point may wait before the
	// maintainer drains it into a published snapshot (default 100ms). The
	// point is searchable immediately either way — Interval only bounds
	// how long it is served by the scan path instead of the graph.
	Interval time.Duration
	// Insert parameterizes the drain-time graph insertion; zero values use
	// the index's build-time defaults.
	Insert core.InsertParams
}

func (o *Options) fillDefaults() {
	if o.MaxPending <= 0 {
		o.MaxPending = 512
	}
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
}

// Stats reports the maintenance state of a live handle.
type Stats struct {
	Pending      int       // delta rows not yet drained into the snapshot
	SnapshotRows int       // rows served by the published snapshot
	Publishes    uint64    // snapshots published since New
	Drained      uint64    // rows drained through the insert path
	LastPublish  time.Time // when the current snapshot was published
}

// slabRows is the capacity of a fresh delta slab, and the least capacity
// of a replacement.
const slabRows = 256

// slab is the append-only delta buffer. Rows [0, n) are frozen — written
// before n was advanced, never touched again — so readers that load n once
// may scan them without a lock. A full slab is never grown: Append replaces
// it by a fresh one holding only its undrained rows. codes is non-nil iff
// the index is SQ8-quantized.
type slab struct {
	vecs  []float32
	codes []uint8
	ids   []int32
	seq   []int32 // identity sequence 0..len(ids), for the batched gather kernels
	dim   int
	n     atomic.Int32
}

// rows returns rows [lo, hi) as the query-side Delta.
func (s *slab) rows(lo, hi int) core.Delta {
	d := core.Delta{
		Vecs: vecmath.Matrix{Data: s.vecs[lo*s.dim : hi*s.dim], Rows: hi - lo, Dim: s.dim},
		IDs:  s.ids[lo:hi],
		Seq:  s.seq[:hi-lo],
	}
	if s.codes != nil {
		d.Codes = quant.CodeMatrix{Codes: s.codes[lo*s.dim : hi*s.dim], Rows: hi - lo, Dim: s.dim}
	}
	return d
}

// view is one published epoch: everything a query needs, reachable from a
// single atomic pointer. Views are immutable; every mutation that changes
// the set of reachable state (snapshot publish, slab replacement, tombstone
// update) installs a fresh one.
type view struct {
	snap      *core.Snapshot
	slab      *slab   // nil until the first Append
	skip      int     // rows of slab already drained into snap
	translate []int32 // snapshot-local -> final ids; nil = identity
	dead      *core.Tombstones
	gen       uint64
}

// Handle is the one writer and the one reader entry of a core.NSG: Append
// and Delete are safe from any goroutine, Query is safe from any goroutine
// with per-goroutine contexts, and nothing else may mutate the wrapped NSG
// while the handle serves it. The maintainer goroutine runs only while
// appended rows wait to drain: New starts none, an Append starts it, it
// exits once the delta is drained (or Close stops it), and the next Append
// starts another.
type Handle struct {
	idx *core.NSG
	q   *quant.Quantizer // non-nil iff SQ8-quantized
	dim int

	mu    sync.Mutex
	opts  Options    // cadence, replaced by SetOptions; read under mu
	cond  *sync.Cond // broadcast after every publish and maintainer exit, for Flush
	slab  *slab      // the delta buffer; nil until the first Append
	skip  int        // rows of slab already drained
	seq   []int32    // identity sequence shared by slab scans, grown to the largest slab
	trans []int32    // local -> final id table; nil = identity (single index)
	dead  *core.Tombstones
	stop  chan struct{} // non-nil while a maintainer runs
	done  chan struct{} // closed when that maintainer exits

	// drainMu keeps drains one at a time: a maintainer that Close stopped
	// may still finish its last drain while an Append starts the next.
	drainMu sync.Mutex

	view      atomic.Pointer[view]
	pending   atomic.Int64
	publishes atomic.Uint64
	drained   atomic.Uint64
	lastPub   atomic.Int64 // unix nanos of the current snapshot's publish

	wake chan struct{}
}

// New wraps idx in a handle. No goroutine starts until the first Append.
//
// translate, when non-nil, maps the index's local public ids to the ids
// results should carry (a sharded index's global ids); the handle takes
// ownership and extends it as inserts drain. The handle assumes exclusive
// mutation rights over idx from this call on.
func New(idx *core.NSG, translate []int32, opts Options) *Handle {
	opts.fillDefaults()
	h := &Handle{
		opts:  opts,
		idx:   idx,
		dim:   idx.Base.Dim,
		trans: translate,
		wake:  make(chan struct{}, 1),
	}
	if idx.Quant != nil {
		h.q = &idx.Quant.Q
	}
	h.cond = sync.NewCond(&h.mu)
	h.view.Store(&view{snap: idx.Snapshot(), translate: translate, dead: h.dead})
	h.lastPub.Store(time.Now().UnixNano())
	return h
}

// SetOptions replaces the handle's cadence; the maintainer picks it up on
// its next cycle.
func (h *Handle) SetOptions(opts Options) {
	opts.fillDefaults()
	h.mu.Lock()
	h.opts = opts
	h.mu.Unlock()
}

// Options returns the handle's current cadence, for a handle that replaces
// this one over the same index.
func (h *Handle) Options() Options {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.opts
}

// startLocked launches the maintainer unless one runs. Callers hold h.mu.
func (h *Handle) startLocked() {
	if h.stop != nil {
		return
	}
	h.stop, h.done = make(chan struct{}), make(chan struct{})
	go h.run(h.stop, h.done)
}

// publishLocked installs a fresh view built from the handle's current
// state. snap == nil keeps the currently published snapshot. Callers hold
// h.mu.
func (h *Handle) publishLocked(snap *core.Snapshot) {
	prev := h.view.Load()
	if snap == nil {
		snap = prev.snap
	}
	h.view.Store(&view{
		snap:      snap,
		slab:      h.slab,
		skip:      h.skip,
		translate: h.trans,
		dead:      h.dead,
		gen:       prev.gen + 1,
	})
}

// signal nudges the maintainer without blocking.
func (h *Handle) signal() {
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// Append inserts vec (copied) under final id id and returns its local id:
// published snapshot rows plus the row's offset in the delta, the id
// Vector, Delete and the pass test take and the public id the row keeps
// once it drains. A handle without a translate table has one id space, so
// there id must be that local id (Len). The point is searchable as soon as
// Append returns — first through the delta scan, then, once the maintainer
// drains it, through the graph. Append never waits for graph work and
// never blocks searches.
func (h *Handle) Append(vec []float32, id int32) (int32, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	local := int32(h.view.Load().snap.Rows()) + int32(h.pending.Load())
	if h.trans == nil && id != local {
		return -1, fmt.Errorf("live: id %d on a handle without a translate table, want its local id %d", id, local)
	}
	if err := h.appendLocked(vec, id); err != nil {
		return -1, err
	}
	return local, nil
}

// appendLocked writes one row into the delta, starts the maintainer if none
// runs, and nudges it once MaxPending rows wait. Callers hold h.mu.
func (h *Handle) appendLocked(vec []float32, id int32) error {
	if len(vec) != h.dim {
		return fmt.Errorf("live: vector dim %d != index dim %d", len(vec), h.dim)
	}
	s := h.slab
	full := s == nil || int(s.n.Load()) == len(s.ids)
	if full {
		s = h.replaceLocked()
	}
	i := int(s.n.Load())
	copy(s.vecs[i*h.dim:(i+1)*h.dim], vec)
	if h.q != nil {
		h.q.EncodeInto(s.codes[i*h.dim:(i+1)*h.dim], vec)
	}
	s.ids[i] = id
	// The atomic store is the release barrier: a reader that observes the
	// new count also observes the row it guards.
	s.n.Store(int32(i + 1))
	if full {
		h.publishLocked(nil)
	}
	h.startLocked()
	if h.pending.Add(1) >= int64(h.opts.MaxPending) {
		h.signal()
	}
	return nil
}

// replaceLocked installs a fresh slab of max(slabRows, 2 × undrained) rows
// holding the current slab's undrained rows, and returns it. The old slab
// is left as it was: views and a running drain that hold it keep reading
// it. Callers hold h.mu and publish.
func (h *Handle) replaceLocked() *slab {
	var old core.Delta
	if h.slab != nil {
		old = h.slab.rows(h.skip, int(h.slab.n.Load()))
	}
	rows := max(slabRows, 2*old.Rows())
	for len(h.seq) < rows {
		h.seq = append(h.seq, int32(len(h.seq)))
	}
	s := &slab{
		vecs: make([]float32, rows*h.dim),
		ids:  make([]int32, rows),
		seq:  h.seq[:rows],
		dim:  h.dim,
	}
	copy(s.vecs, old.Vecs.Data)
	copy(s.ids, old.IDs)
	if h.q != nil {
		s.codes = make([]uint8, rows*h.dim)
		copy(s.codes, old.Codes.Codes)
	}
	s.n.Store(int32(old.Rows()))
	h.slab, h.skip = s, 0
	return s
}

// Delete tombstones a local id (the id Vector takes): the row stops
// appearing in results immediately. A pending row's local id is the public
// id it drains to, and the pass test checks snapshot and pending rows in
// that one id space, so a tombstone keeps its meaning across the drain.
// The tombstone set is published copy-on-write, so in-flight searches keep
// their frozen set and never synchronize with deletes. Range and duplicate
// checks run under the writer mutex, so concurrent Deletes of one id
// cannot both report success.
func (h *Handle) Delete(id int32) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if rows := h.view.Load().snap.Rows() + int(h.pending.Load()); id < 0 || int(id) >= rows {
		return fmt.Errorf("live: id %d out of range [0,%d)", id, rows)
	}
	if h.dead.Deleted(id) {
		return fmt.Errorf("live: id %d already deleted", id)
	}
	nd := h.dead.Clone()
	nd.Delete(id)
	h.dead = nd
	h.publishLocked(nil)
	return nil
}

// Deleted reports whether local id is tombstoned in the current view.
func (h *Handle) Deleted(id int32) bool { return h.view.Load().dead.Deleted(id) }

// DeadCount returns the number of tombstoned ids in the current view.
func (h *Handle) DeadCount() int { return h.view.Load().dead.Len() }

// Len returns the number of ids the handle serves: published snapshot rows
// plus pending delta rows.
func (h *Handle) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.view.Load().snap.Rows() + int(h.pending.Load())
}

// Stats reports the handle's maintenance state.
func (h *Handle) Stats() Stats {
	v := h.view.Load()
	return Stats{
		Pending:      int(h.pending.Load()),
		SnapshotRows: v.snap.Rows(),
		Publishes:    h.publishes.Load(),
		Drained:      h.drained.Load(),
		LastPublish:  time.Unix(0, h.lastPub.Load()),
	}
}

// IndexStats reports graph statistics computed from the published
// snapshot's frozen graph — safe concurrently with everything.
func (h *Handle) IndexStats() core.IndexStats {
	return h.view.Load().snap.Stats()
}

// Vector returns the stored vector for the local id: from the published
// snapshot when the point has been drained, from the delta buffer, by
// append order, otherwise. On an identity-mapped handle the local id is the
// id; on a translate-mode handle it is the one Append returned. The
// returned slice is write-once shared storage; do not modify it. ok is
// false when id is not (yet) visible.
func (h *Handle) Vector(id int32) (vec []float32, ok bool) {
	v := h.view.Load()
	n := int32(v.snap.Rows())
	if id < 0 {
		return nil, false
	}
	if id < n {
		return v.snap.Vector(id), true
	}
	// Pending rows take sequential local ids in append order.
	s := v.slab
	if s == nil {
		return nil, false
	}
	j := v.skip + int(id-n)
	if j >= int(s.n.Load()) {
		return nil, false
	}
	return s.vecs[j*s.dim : (j+1)*s.dim], true
}

// Translate returns the local→final id table of the published snapshot's
// rows (nil for identity). Later drains only append past its end, so the
// returned entries never change. After Flush, with no concurrent appends,
// it covers every row — the persistence path's hook.
func (h *Handle) Translate() []int32 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.trans
}

// Query answers one query from the current view: Snapshot.Query over the
// published snapshot with q's Delta, Dead and Translate filled from the
// view — the pending delta offered to the candidate pool, tombstones in the
// pass test, ids emitted in final (translated) space — and distances exact.
// Under a q.Filter only rows passing it occupy result slots; like the
// tombstones, the filter is keyed by local id, so delta rows and snapshot
// rows test against one bitmap. The view is loaded once, so the query
// sees one epoch in full — a publish landing mid-query affects only later
// queries. The slab's row count is loaded once too, so the scanned rows
// are frozen for the whole query. The returned slice aliases ctx; with a
// reused per-goroutine context the steady state allocates nothing.
func (h *Handle) Query(ctx *core.SearchContext, vec []float32, q core.Query) core.SearchResult {
	v := h.view.Load()
	q.Delta, q.Dead, q.Translate = nil, v.dead, v.translate
	if s := v.slab; s != nil {
		q.Delta = ctx.Delta()
		*q.Delta = s.rows(v.skip, int(s.n.Load()))
	}
	return v.snap.Query(ctx, vec, q)
}

// Flush blocks until every row appended before the call has been drained
// into a published snapshot, starting the maintainer if none runs. Tests
// and persistence use it; serving never needs to.
func (h *Handle) Flush() {
	h.mu.Lock()
	for h.pending.Load() > 0 {
		h.startLocked()
		h.signal()
		h.cond.Wait()
	}
	h.mu.Unlock()
}

// Close flushes the delta, so no appended row is lost, and waits until the
// maintainer has stopped. The handle stays usable: a later Append starts a
// new one.
func (h *Handle) Close() {
	h.Flush()
	h.mu.Lock()
	stop, done := h.stop, h.done
	h.stop, h.done = nil, nil
	h.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// run is the maintainer goroutine: wait for work (a depth signal or the
// cadence timer), drain everything pending and publish, until nothing is
// pending or stop closes. An idle maintainer exits, so a handle whose
// writes have drained holds no goroutine; the next Append starts one.
func (h *Handle) run(stop, done chan struct{}) {
	defer func() {
		close(done)
		h.cond.Broadcast() // a Flush waiting on this maintainer starts the next
	}()
	t := time.NewTimer(h.Options().Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-h.wake:
			if !t.Stop() {
				select {
				case <-t.C:
				default:
				}
			}
		case <-t.C:
		}
		for h.pending.Load() > 0 {
			h.drainOnce()
			select {
			case <-stop:
				return
			default:
			}
		}
		h.mu.Lock()
		if h.pending.Load() == 0 {
			if h.stop == stop {
				h.stop, h.done = nil, nil
			}
			h.mu.Unlock()
			return
		}
		h.mu.Unlock()
		t.Reset(h.Options().Interval)
	}
}

// drainOnce drains every delta row visible at the cut through the
// incremental-insert path and publishes a snapshot that covers them.
// Appends landing during the drain stay in the delta for the next cycle.
func (h *Handle) drainOnce() {
	h.drainMu.Lock()
	defer h.drainMu.Unlock()
	if c := h.cut(); c.hi > c.lo {
		h.drain(c)
	}
}

// drainCut is one drain's work: rows [lo, hi) of slab s, frozen when it
// was taken, and the state their inserts start from.
type drainCut struct {
	s      *slab
	lo, hi int
	trans  []int32
	insert core.InsertParams
}

// cut takes the delta's rows as of now. Callers hold h.drainMu.
func (h *Handle) cut() drainCut {
	h.mu.Lock()
	defer h.mu.Unlock()
	c := drainCut{s: h.slab, lo: h.skip, hi: h.skip, trans: h.trans, insert: h.opts.Insert}
	if c.s != nil {
		c.hi = int(c.s.n.Load())
	}
	return c
}

// drain inserts c's rows and publishes. Callers hold h.drainMu.
func (h *Handle) drain(c drainCut) {
	// Graph work, outside every lock: the inserts edit adjacency lists
	// copied from the published graph, and published readers only traverse
	// write-once CSR rows and vectors.
	trans := c.trans
	for j := c.lo; j < c.hi; j++ {
		id, err := h.idx.Insert(c.s.vecs[j*c.s.dim:(j+1)*c.s.dim], c.insert)
		if err != nil {
			// Unreachable: dimensions are validated at append time and
			// Insert has no other failure mode. Losing a row silently
			// would be worse than stopping the process.
			panic(fmt.Sprintf("live: drain insert: %v", err))
		}
		// A row drains to the local id it was appended under.
		local := c.s.ids[j]
		if trans != nil {
			local = int32(len(trans))
			trans = append(trans, c.s.ids[j])
		}
		if id != local {
			panic(fmt.Sprintf("live: drain id %d != local id %d", id, local))
		}
	}
	snap := h.idx.Snapshot()
	rows := c.hi - c.lo

	h.mu.Lock()
	// Advance the skip past the cut. A replacement since the cut copied the
	// slab's rows from c.lo (drains run one at a time, so that was still the
	// skip), and so did any replacement of it: the cut is its first rows.
	if h.slab == c.s {
		h.skip = c.hi
	} else {
		h.skip = rows
	}
	h.trans = trans
	// Counters move before the mutex drops so a Flush caller that sees
	// Pending == 0 also sees Drained/Publishes accounting for this batch.
	h.drained.Add(uint64(rows))
	h.publishes.Add(1)
	h.lastPub.Store(time.Now().UnixNano())
	h.pending.Add(-int64(rows))
	h.publishLocked(snap)
	// A mapped index's first drain copied its slabs out, and from now on
	// only a search already in flight reads the mapping: hand its pages
	// back. This runs before the mutex drops, so a Flush that returns has
	// seen it.
	h.idx.ReleaseMapped()
	h.mu.Unlock()
	h.cond.Broadcast()
}
