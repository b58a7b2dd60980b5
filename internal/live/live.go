// Package live implements non-blocking live updates for an NSG index: the
// snapshot + delta-buffer architecture incremental graph systems use
// (HNSW-style serving, cf. Malkov & Yashunin 2016) so streaming inserts
// coexist with heavy read traffic instead of serializing against it.
//
// The moving parts:
//
//   - Queries serve from an immutable published core.Snapshot — flat
//     adjacency, base vectors, quantization codes — reached through one atomic
//     pointer load. The read path takes no lock and keeps the repository's
//     zero-allocation SearchContext discipline.
//   - Append (the non-blocking insert) copies the vector into a small
//     append-only delta buffer and returns. Queries brute-force scan the
//     delta with the batched vecmath/quant kernels and merge it into the
//     candidate pool, so a point is searchable the moment Append returns,
//     with exact distances.
//   - A background maintainer drains the delta through the existing
//     Algorithm 2 incremental-insert path (core.NSG.Insert) into the
//     maintainer-private ragged graph, re-freezes the flat layout once per
//     batch, and atomically publishes a fresh snapshot that includes the
//     drained points — at which point they leave the scan path.
//
// Epochs and retirement: every publish installs a new immutable view;
// in-flight queries keep whatever view they loaded, and a retired view
// (its snapshot, chunk list and tombstone set) is reclaimed by the garbage
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
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/vecmath"
	"repro/internal/vecmath/quant"
)

// Options tunes the delta buffer and the maintainer's publish cadence.
type Options struct {
	// ChunkRows is the capacity of one delta chunk (default 256). Chunks
	// are the unit of buffer growth: appends within a chunk publish nothing
	// (readers see new rows through one atomic row count), a full chunk
	// adds one pointer to the next published view.
	ChunkRows int
	// MaxPending is the delta depth that triggers an immediate drain
	// (default 512). Until it is hit, the maintainer waits up to Interval,
	// batching insertions so the per-batch flatten amortizes.
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
	if o.ChunkRows <= 0 {
		o.ChunkRows = 256
	}
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
	Publishes    uint64    // snapshots published since Start
	Drained      uint64    // rows drained through the insert path
	LastPublish  time.Time // when the current snapshot was published
}

// chunk is one fixed-capacity run of the append-only delta buffer. Rows
// [0, n) are frozen — written before n was advanced, never touched again —
// so readers that load n once may scan them without a lock. codes is
// non-nil iff the index is SQ8-quantized; codes4 (with its packed row
// stride) iff it is int4-quantized.
type chunk struct {
	vecs   []float32
	codes  []uint8
	codes4 []uint8
	stride int // packed bytes per codes4 row
	ids    []int32
	dim    int
	cap    int
	n      atomic.Int32
}

func newChunk(rows, dim int, mode quant.Mode) *chunk {
	ch := &chunk{
		vecs: make([]float32, rows*dim),
		ids:  make([]int32, rows),
		dim:  dim,
		cap:  rows,
	}
	switch mode {
	case quant.ModeSQ8:
		ch.codes = make([]uint8, rows*dim)
	case quant.ModeInt4:
		ch.stride = quant.Stride4(dim)
		ch.codes4 = make([]uint8, rows*ch.stride)
	}
	return ch
}

// view is one published epoch: everything a query needs, reachable from a
// single atomic pointer. Views are immutable; every mutation that changes
// the set of reachable state (snapshot publish, chunk addition, tombstone
// update) installs a fresh one.
type view struct {
	snap      *core.Snapshot
	chunks    []*chunk
	skip      int     // rows of chunks[0] already drained into snap
	translate []int32 // snapshot-local -> final ids; nil = identity
	dead      *core.Tombstones
	gen       uint64
}

// Handle is a live-update session over one core.NSG. After Start, the
// handle owns all mutation of the index: Append and Delete are safe from
// any goroutine, Query is safe from any goroutine with per-goroutine
// contexts, and nothing else may touch the wrapped NSG until Close.
type Handle struct {
	opts Options
	idx  *core.NSG
	q    *quant.Quantizer  // non-nil iff SQ8-quantized
	q4   *quant.Quantizer4 // non-nil iff int4-quantized
	dim  int
	seq  []int32 // shared identity sequence for batched chunk scans

	mu     sync.Mutex
	cond   *sync.Cond // broadcast after every publish, for Flush
	chunks []*chunk   // undrained chunks, oldest first; only the last has spare capacity
	skip   int        // rows of chunks[0] already drained
	nextID int32      // next self-assigned id (identity mode)
	trans  []int32    // local -> final id table; nil = identity (single index)
	dead   *core.Tombstones
	closed bool

	view      atomic.Pointer[view]
	pending   atomic.Int64
	publishes atomic.Uint64
	drained   atomic.Uint64
	lastPub   atomic.Int64 // unix nanos of the current snapshot's publish

	wake chan struct{}
	stop chan struct{}
	done chan struct{}

	scratch sync.Pool // *queryScratch
}

// queryScratch is the per-query fan state the scan path reuses: the Delta
// description handed to core, rebuilt from the current view on every query.
type queryScratch struct {
	delta core.Delta
}

// Start wraps idx in a live-update handle and launches its maintainer.
//
// translate, when non-nil, maps the index's local public ids to the ids
// results should carry (a sharded index's global ids); the handle takes
// ownership and extends it as inserts drain. dead seeds the tombstone set
// (it is cloned) and, like Delete, belongs to identity mode only: pass nil
// with a translate table. The handle assumes exclusive mutation rights over
// idx from this call until Close.
func Start(idx *core.NSG, translate []int32, dead *core.Tombstones, opts Options) *Handle {
	opts.fillDefaults()
	h := &Handle{
		opts:   opts,
		idx:    idx,
		dim:    idx.Base.Dim,
		seq:    make([]int32, opts.ChunkRows),
		nextID: int32(idx.Base.Rows),
		trans:  translate,
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for i := range h.seq {
		h.seq[i] = int32(i)
	}
	if idx.Quant != nil {
		if idx.Quant.Mode == quant.ModeInt4 {
			h.q4 = &idx.Quant.Q4
		} else {
			h.q = &idx.Quant.Q
		}
	}
	if dead.Len() > 0 {
		h.dead = dead.Clone()
	}
	h.cond = sync.NewCond(&h.mu)
	idx.FlatView() // ensure the serving layout exists before the first freeze
	h.view.Store(&view{snap: idx.Snapshot(), translate: translate, dead: h.dead})
	h.lastPub.Store(time.Now().UnixNano())
	go h.run()
	return h
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
		chunks:    append([]*chunk(nil), h.chunks...),
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

// Append inserts vec (copied) under the next self-assigned id and returns
// that id. The point is searchable as soon as Append returns — first
// through the delta scan, then, once the maintainer drains it, through the
// graph. Append never waits for graph work and never blocks searches.
func (h *Handle) Append(vec []float32) (int32, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return -1, fmt.Errorf("live: handle is closed")
	}
	if h.trans != nil {
		// Translate-mode handles get their ids from the embedder
		// (AppendWithID); self-assigned ids would collide with them.
		h.mu.Unlock()
		return -1, fmt.Errorf("live: handle uses caller-assigned ids; use AppendWithID")
	}
	id := h.nextID
	if err := h.appendLocked(vec, id); err != nil {
		h.mu.Unlock()
		return -1, err
	}
	h.nextID++
	pend := h.pending.Add(1)
	h.mu.Unlock()
	if pend >= int64(h.opts.MaxPending) {
		h.signal()
	}
	return id, nil
}

// AppendWithID is Append with a caller-assigned final id — the sharded
// path, where global ids are allocated above the per-shard handles.
func (h *Handle) AppendWithID(vec []float32, id int32) error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return fmt.Errorf("live: handle is closed")
	}
	if err := h.appendLocked(vec, id); err != nil {
		h.mu.Unlock()
		return err
	}
	pend := h.pending.Add(1)
	h.mu.Unlock()
	if pend >= int64(h.opts.MaxPending) {
		h.signal()
	}
	return nil
}

func (h *Handle) appendLocked(vec []float32, id int32) error {
	if len(vec) != h.dim {
		return fmt.Errorf("live: vector dim %d != index dim %d", len(vec), h.dim)
	}
	var ch *chunk
	if n := len(h.chunks); n > 0 {
		if last := h.chunks[n-1]; int(last.n.Load()) < last.cap {
			ch = last
		}
	}
	fresh := ch == nil
	if fresh {
		mode := quant.ModeNone
		switch {
		case h.q4 != nil:
			mode = quant.ModeInt4
		case h.q != nil:
			mode = quant.ModeSQ8
		}
		ch = newChunk(h.opts.ChunkRows, h.dim, mode)
		h.chunks = append(h.chunks, ch)
	}
	i := int(ch.n.Load())
	copy(ch.vecs[i*h.dim:(i+1)*h.dim], vec)
	switch {
	case h.q4 != nil:
		h.q4.EncodeInto(ch.codes4[i*ch.stride:(i+1)*ch.stride], vec)
	case h.q != nil:
		h.q.EncodeInto(ch.codes[i*h.dim:(i+1)*h.dim], vec)
	}
	ch.ids[i] = id
	// The atomic store is the release barrier: a reader that observes the
	// new count also observes the row it guards.
	ch.n.Store(int32(i + 1))
	if fresh {
		h.publishLocked(nil)
	}
	return nil
}

// errTranslatedDelete is what Delete returns on a translate-mode handle.
var errTranslatedDelete = errors.New("live: Delete is not supported on a handle with caller-assigned ids")

// Delete tombstones an id: it stops appearing in results immediately. The
// tombstone set is published copy-on-write, so in-flight searches keep
// their frozen set and never synchronize with deletes. Range and duplicate
// checks run under the writer mutex, so concurrent Deletes of one id
// cannot both report success.
//
// Only identity-mode handles delete. With a translate table a snapshot row
// is tested by its shard-local id and a pending row by its final id, so one
// tombstone would change meaning the moment its row drains — and the final
// id space has no bound here to range-check against.
func (h *Handle) Delete(id int32) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return fmt.Errorf("live: handle is closed")
	}
	if h.trans != nil {
		return errTranslatedDelete
	}
	// Identity mode: ids are dense, so the range is known exactly.
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

// Deleted reports whether id is tombstoned in the current view.
func (h *Handle) Deleted(id int32) bool { return h.view.Load().dead.Deleted(id) }

// Dead returns the current tombstone set (nil when nothing was deleted).
// The set is immutable; callers that outlive the handle may keep it.
func (h *Handle) Dead() *core.Tombstones {
	return h.view.Load().dead
}

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
// snapshot's frozen flat layout — safe concurrently with everything.
func (h *Handle) IndexStats() core.IndexStats {
	return h.view.Load().snap.Stats()
}

// Vector returns the stored vector for id on an identity-mapped handle:
// from the published snapshot when the point has been drained, from the
// delta buffer otherwise. The returned slice is write-once shared storage;
// do not modify it. ok is false when id is not (yet) visible.
func (h *Handle) Vector(id int32) (vec []float32, ok bool) {
	v := h.view.Load()
	n := int32(v.snap.Rows())
	if id >= 0 && id < n {
		return v.snap.Vector(id), true
	}
	// Pending rows carry sequential ids in append order (identity mode).
	off := int(id - n)
	for i, ch := range v.chunks {
		lo := 0
		if i == 0 {
			lo = v.skip
		}
		rows := int(ch.n.Load()) - lo
		if off < rows {
			j := lo + off
			return ch.vecs[j*ch.dim : (j+1)*ch.dim], true
		}
		off -= rows
	}
	return nil, false
}

// Translate returns the current local→final id table (nil for identity).
// Only meaningful when the handle is quiescent (after Flush, with no
// concurrent appends) — the persistence path's hook.
func (h *Handle) Translate() []int32 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.trans
}

// Query answers one query from the current view: Snapshot.Query over the
// published snapshot with q's Delta, Dead and Translate filled from the
// view — the pending delta offered to the candidate pool, tombstones in the
// pass test, ids in final (translated) space — and distances exact. Under a
// q.Filter only rows passing it occupy result slots; the filter is keyed by
// final id — exactly the id space this handle returns — so delta rows and
// snapshot rows test against the same bitmap, and the view's translate
// table doubles as the filter remap. The view is loaded once, so the query
// sees one epoch in full — a publish landing mid-query affects only later
// queries. The returned slice aliases ctx; with a reused per-goroutine
// context the steady state allocates nothing.
func (h *Handle) Query(ctx *core.SearchContext, vec []float32, q core.Query) core.SearchResult {
	v := h.view.Load()
	sc, _ := h.scratch.Get().(*queryScratch)
	if sc == nil {
		sc = &queryScratch{}
	}
	q.Delta, q.Dead, q.Translate = sc.fill(v, h.seq), v.dead, v.translate
	res := v.snap.Query(ctx, vec, q)
	h.scratch.Put(sc)
	return res
}

// fill rebuilds the core.Delta for one query from the loaded view. Each
// chunk's row count is loaded once, so the scanned prefix is frozen for
// the whole query.
func (sc *queryScratch) fill(v *view, seq []int32) *core.Delta {
	d := &sc.delta
	d.Reset()
	for i, ch := range v.chunks {
		lo := 0
		if i == 0 {
			lo = v.skip
		}
		cnt := int(ch.n.Load())
		rows := cnt - lo
		if rows <= 0 {
			continue
		}
		dc := core.DeltaChunk{
			Vecs: vecmath.Matrix{Data: ch.vecs[lo*ch.dim : cnt*ch.dim], Rows: rows, Dim: ch.dim},
			IDs:  ch.ids[lo:cnt],
			Seq:  seq[:rows],
			Off:  d.Total,
		}
		if ch.codes != nil {
			dc.Codes = quant.CodeMatrix{Codes: ch.codes[lo*ch.dim : cnt*ch.dim], Rows: rows, Dim: ch.dim}
		}
		if ch.codes4 != nil {
			dc.Codes4 = quant.Code4Matrix{Codes: ch.codes4[lo*ch.stride : cnt*ch.stride], Rows: rows, Dim: ch.dim, Stride: ch.stride}
		}
		d.Chunks = append(d.Chunks, dc)
		d.Total += rows
	}
	return d
}

// Flush blocks until every row appended before the call has been drained
// into a published snapshot. Tests and persistence use it; serving never
// needs to.
func (h *Handle) Flush() {
	h.signal()
	h.mu.Lock()
	for h.pending.Load() > 0 && !h.closed {
		h.signal()
		h.cond.Wait()
	}
	h.mu.Unlock()
}

// Close stops the maintainer and waits for it to exit. Pending delta rows
// remain searchable through views already loaded but are not drained;
// call Flush first to quiesce. Idempotent.
func (h *Handle) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		<-h.done
		return
	}
	h.closed = true
	h.mu.Unlock()
	close(h.stop)
	<-h.done
	h.cond.Broadcast() // release Flush waiters
}

// run is the maintainer goroutine: wait for work (a depth signal or the
// cadence timer), drain everything pending, publish, repeat.
func (h *Handle) run() {
	defer close(h.done)
	t := time.NewTimer(h.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-h.stop:
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
			case <-h.stop:
				return
			default:
			}
		}
		t.Reset(h.opts.Interval)
	}
}

// drainOnce drains every delta row visible at the cut through the
// incremental-insert path, re-freezes the flat layout once, and publishes
// a snapshot that covers them. Appends landing during the drain stay in
// the delta for the next cycle.
func (h *Handle) drainOnce() {
	// The cut: chunk list and per-chunk row counts as of now. Rows below
	// the cut are frozen; the chunk list only grows at its tail, so the cut
	// chunks stay a prefix of h.chunks.
	h.mu.Lock()
	cut := append([]*chunk(nil), h.chunks...)
	skip := h.skip
	trans := h.trans
	h.mu.Unlock()
	if len(cut) == 0 {
		return
	}
	counts := make([]int, len(cut))
	total := -skip
	for i, ch := range cut {
		counts[i] = int(ch.n.Load())
		total += counts[i]
	}
	if total <= 0 {
		return
	}

	// Graph work, outside every lock: the ragged graph is
	// maintainer-private, and published readers only traverse frozen flat
	// layouts and write-once rows.
	for i, ch := range cut {
		lo := 0
		if i == 0 {
			lo = skip
		}
		for j := lo; j < counts[i]; j++ {
			vec := ch.vecs[j*ch.dim : (j+1)*ch.dim]
			id, err := h.idx.Insert(vec, h.opts.Insert)
			if err != nil {
				// Unreachable: dimensions are validated at append time and
				// Insert has no other failure mode. Losing a row silently
				// would be worse than stopping the process.
				panic(fmt.Sprintf("live: drain insert: %v", err))
			}
			if trans != nil {
				trans = append(trans, ch.ids[j])
			} else if id != ch.ids[j] {
				panic(fmt.Sprintf("live: drain id %d != assigned id %d", id, ch.ids[j]))
			}
		}
	}
	h.idx.FlatView() // one amortized re-freeze for the whole batch
	snap := h.idx.Snapshot()

	h.mu.Lock()
	// Advance the cut: every cut chunk except possibly the last was full
	// and is fully drained; the last survives as the skip prefix unless it
	// was full too.
	m := len(cut)
	if counts[m-1] == cut[m-1].cap {
		h.chunks = append(h.chunks[:0], h.chunks[m:]...)
		h.skip = 0
	} else {
		h.chunks = append(h.chunks[:0], h.chunks[m-1:]...)
		h.skip = counts[m-1]
	}
	h.trans = trans
	// Counters move before the mutex drops so a Flush caller that sees
	// Pending == 0 also sees Drained/Publishes accounting for this batch.
	h.drained.Add(uint64(total))
	h.publishes.Add(1)
	h.lastPub.Store(time.Now().UnixNano())
	h.pending.Add(-int64(total))
	h.publishLocked(snap)
	h.mu.Unlock()
	h.cond.Broadcast()
}
