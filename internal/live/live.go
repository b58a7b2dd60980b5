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
//     drained points — at which point they leave the scan path. It runs
//     only while rows wait to drain, so a handle that is never written runs
//     no goroutine and costs its queries one atomic load.
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
	Publishes    uint64    // snapshots published since New
	Drained      uint64    // rows drained through the insert path
	LastPublish  time.Time // when the current snapshot was published
}

// chunk is one fixed-capacity run of the append-only delta buffer. Rows
// [0, n) are frozen — written before n was advanced, never touched again —
// so readers that load n once may scan them without a lock. codes is
// non-nil iff the index is SQ8-quantized.
type chunk struct {
	vecs  []float32
	codes []uint8
	ids   []int32
	seq   []int32 // identity sequence 0..cap, for the batched gather kernels
	dim   int
	cap   int
	n     atomic.Int32
}

func newChunk(rows, dim int, quantized bool, seq []int32) *chunk {
	ch := &chunk{
		vecs: make([]float32, rows*dim),
		ids:  make([]int32, rows),
		seq:  seq,
		dim:  dim,
		cap:  rows,
	}
	if quantized {
		ch.codes = make([]uint8, rows*dim)
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

// Handle is the one writer and the one reader entry of a core.NSG: Append
// and Delete are safe from any goroutine, Query is safe from any goroutine
// with per-goroutine contexts, and nothing else may mutate the wrapped NSG
// while the handle serves it. The maintainer goroutine runs only while
// appended rows wait to drain: New starts none, an Append starts it, it
// exits once the delta is drained (or Close stops it), and the next Append
// starts another.
type Handle struct {
	idx *core.NSG
	ro  bool             // the NSG is a read-only mapping: Append is refused
	q   *quant.Quantizer // non-nil iff SQ8-quantized
	dim int

	mu     sync.Mutex
	opts   Options    // cadence, replaced by SetOptions; read under mu
	cond   *sync.Cond // broadcast after every publish and maintainer exit, for Flush
	chunks []*chunk   // undrained chunks, oldest first; only the last has spare capacity
	skip   int        // rows of chunks[0] already drained
	seq    []int32    // identity sequence shared by chunk scans, grown to the largest chunk
	nextID int32      // next self-assigned id (identity mode)
	trans  []int32    // local -> final id table; nil = identity (single index)
	dead   *core.Tombstones
	stop   chan struct{} // non-nil while a maintainer runs
	done   chan struct{} // closed when that maintainer exits

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
// ownership and extends it as inserts drain. dead seeds the tombstone set
// (it is cloned) and, like Delete, belongs to identity mode only: pass nil
// with a translate table. The handle assumes exclusive mutation rights over
// idx from this call on.
func New(idx *core.NSG, translate []int32, dead *core.Tombstones, opts Options) *Handle {
	opts.fillDefaults()
	h := &Handle{
		opts:   opts,
		idx:    idx,
		ro:     idx.ReadOnly(),
		dim:    idx.Base.Dim,
		nextID: int32(idx.Base.Rows),
		trans:  translate,
		wake:   make(chan struct{}, 1),
	}
	if idx.Quant != nil {
		h.q = &idx.Quant.Q
	}
	if dead.Len() > 0 {
		h.dead = dead.Clone()
	}
	h.cond = sync.NewCond(&h.mu)
	h.view.Store(&view{snap: idx.Snapshot(), translate: translate, dead: h.dead})
	h.lastPub.Store(time.Now().UnixNano())
	return h
}

// SetOptions replaces the handle's cadence. Chunks already allocated keep
// their capacity; the maintainer picks up the rest on its next cycle.
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
	defer h.mu.Unlock()
	if h.trans != nil {
		// Translate-mode handles get their ids from the embedder
		// (AppendWithID); self-assigned ids would collide with them.
		return -1, fmt.Errorf("live: handle uses caller-assigned ids; use AppendWithID")
	}
	if err := h.appendLocked(vec, h.nextID); err != nil {
		return -1, err
	}
	h.nextID++
	return h.nextID - 1, nil
}

// AppendWithID is Append with a caller-assigned final id — the sharded
// path, where global ids are allocated above the per-shard handles.
func (h *Handle) AppendWithID(vec []float32, id int32) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.appendLocked(vec, id)
}

// appendLocked writes one row into the delta, starts the maintainer if none
// runs, and nudges it once MaxPending rows wait. Callers hold h.mu.
func (h *Handle) appendLocked(vec []float32, id int32) error {
	if h.ro {
		return core.ErrReadOnly
	}
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
		rows := h.opts.ChunkRows
		for len(h.seq) < rows {
			h.seq = append(h.seq, int32(len(h.seq)))
		}
		ch = newChunk(rows, h.dim, h.q != nil, h.seq[:rows])
		h.chunks = append(h.chunks, ch)
	}
	i := int(ch.n.Load())
	copy(ch.vecs[i*h.dim:(i+1)*h.dim], vec)
	if h.q != nil {
		h.q.EncodeInto(ch.codes[i*h.dim:(i+1)*h.dim], vec)
	}
	ch.ids[i] = id
	// The atomic store is the release barrier: a reader that observes the
	// new count also observes the row it guards.
	ch.n.Store(int32(i + 1))
	if fresh {
		h.publishLocked(nil)
	}
	h.startLocked()
	if h.pending.Add(1) >= int64(h.opts.MaxPending) {
		h.signal()
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
	q.Delta, q.Dead, q.Translate = v.fill(ctx.Delta()), v.dead, v.translate
	return v.snap.Query(ctx, vec, q)
}

// fill describes the view's pending rows in d, the query's reset Delta.
// Each chunk's row count is loaded once, so the scanned prefix is frozen
// for the whole query.
func (v *view) fill(d *core.Delta) *core.Delta {
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
			Seq:  ch.seq[:rows],
			Off:  d.Total,
		}
		if ch.codes != nil {
			dc.Codes = quant.CodeMatrix{Codes: ch.codes[lo*ch.dim : cnt*ch.dim], Rows: rows, Dim: ch.dim}
		}
		d.Chunks = append(d.Chunks, dc)
		d.Total += rows
	}
	return d
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
// incremental-insert path, re-freezes the flat layout once, and publishes
// a snapshot that covers them. Appends landing during the drain stay in
// the delta for the next cycle.
func (h *Handle) drainOnce() {
	h.drainMu.Lock()
	defer h.drainMu.Unlock()
	// The cut: chunk list and per-chunk row counts as of now. Rows below
	// the cut are frozen; the chunk list only grows at its tail, so the cut
	// chunks stay a prefix of h.chunks.
	h.mu.Lock()
	cut := append([]*chunk(nil), h.chunks...)
	skip := h.skip
	trans := h.trans
	insert := h.opts.Insert
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
			id, err := h.idx.Insert(vec, insert)
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
