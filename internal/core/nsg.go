package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chunkio"
	"repro/internal/graphutil"
	"repro/internal/meta"
	"repro/internal/mstore"
	"repro/internal/vecmath"
	"repro/internal/vecmath/quant"
)

// BuildParams configures NSGBuild (Algorithm 2). The three parameters match
// the paper's (k, l, m): k is carried by the supplied kNN graph, L is the
// candidate pool size for the search-and-collect pass, and M caps the
// out-degree of every node.
type BuildParams struct {
	L int // candidate pool size for search-collect (paper's l); default 40
	M int // maximum out-degree (paper's m); default 30
	// C caps how many collected candidates are considered during edge
	// selection; 0 means no cap beyond what the search visited.
	C    int
	Seed int64
}

// DefaultBuildParams returns settings appropriate for the test-scale
// datasets used in this reproduction.
func DefaultBuildParams() BuildParams {
	return BuildParams{L: 40, M: 30, C: 500, Seed: 1}
}

// NSG is the built index: the pruned graph, its fixed entry point, and the
// base vectors it indexes.
//
// Alongside the mutable adjacency lists, the index caches a fixed-stride
// flat copy of the graph (graphutil.FlatGraph) — the serving layout the
// paper's Table 2 describes — plus the reachable-node count Stats reports.
// Both caches are built at construction/load, invalidated by mutations
// (Insert), and rebuilt lazily, so searches always traverse the flat layout.
type NSG struct {
	Graph      *graphutil.Graph
	Navigating int32 // the navigating node: search always starts here
	Base       vecmath.Matrix
	M          int // degree cap the index was built with

	// Quant, when non-nil, holds the trained SQ8 grid and the code matrix;
	// every query path then runs the two-phase quantized search (code-space
	// expansion, exact rerank). See EnableQuantization.
	Quant *Quantized
	// PubIDs translates internal node ids to the caller-visible ids when a
	// cache-aware Relayout permuted the graph; nil means identity. Query
	// applies it to every emitted result, and toInternal is its inverse.
	PubIDs     []int32
	toInternal []int32

	// Meta, when non-nil, is the metadata column store filtered search
	// compiles predicates against, keyed by public id (row r describes the
	// point with public id r, independent of any relayout). Persisted as an
	// optional section in the NSGQ stream and NSGM mapped layouts.
	Meta *meta.Store

	flatMu sync.Mutex
	flat   atomic.Pointer[graphutil.FlatGraph]
	reach  atomic.Int64 // cached ReachableFrom(Navigating)+1; 0 = unknown

	// Mapped-mode state (see mapped.go). A mapped index has Graph == nil
	// — the flat cache is the only adjacency, pointing into the file — and
	// ro set; mutators check ro and return ErrReadOnly. mapped holds the
	// backing file when this index owns it (nil for records opened inside
	// a container, whose mapping the container owns).
	ro     bool
	mapped *mstore.File
}

// FlatView returns the fixed-stride adjacency the searcher traverses,
// flattening the graph on first use and caching the result until the next
// mutation. Safe for concurrent use; the returned graph is immutable.
func (x *NSG) FlatView() *graphutil.FlatGraph {
	if f := x.flat.Load(); f != nil {
		return f
	}
	x.flatMu.Lock()
	defer x.flatMu.Unlock()
	if f := x.flat.Load(); f != nil {
		return f
	}
	f := graphutil.Flatten(x.Graph)
	x.flat.Store(f)
	return f
}

// invalidateDerived drops the flat-layout and reachability caches after a
// graph mutation; they rebuild lazily on next use.
func (x *NSG) invalidateDerived() {
	x.flat.Store(nil)
	x.reach.Store(0)
}

// PhaseTimings records the wall-clock cost of each Algorithm 2 phase, so
// build-performance work (this repository's Table 2 angle) is measurable
// per phase rather than only end to end.
type PhaseTimings struct {
	Navigate    time.Duration // medoid location on the kNN graph (step ii, incl. its flatten)
	Collect     time.Duration // per-node search-collect-select (step iii)
	InterInsert time.Duration // reverse-edge insertion and overflow re-prunes
	Repair      time.Duration // DFS spanning repair (step iv)
	Flatten     time.Duration // freezing the fixed-stride serving layout
}

// Total sums the phase timings.
func (t PhaseTimings) Total() time.Duration {
	return t.Navigate + t.Collect + t.InterInsert + t.Repair + t.Flatten
}

// BuildStats reports what Algorithm 2 did, feeding Tables 2-4.
type BuildStats struct {
	TreeRepairEdges int          // edges added by the DFS spanning repair
	TreePasses      int          // DFS passes until fully connected
	Phases          PhaseTimings // wall clock per build phase
}

// NSGBuild runs Algorithm 2 on a prebuilt (approximate) kNN graph.
func NSGBuild(knn *graphutil.Graph, base vecmath.Matrix, p BuildParams) (*NSG, BuildStats, error) {
	var stats BuildStats
	n := base.Rows
	if n == 0 {
		return nil, stats, fmt.Errorf("core: empty base set")
	}
	if knn.N() != n {
		return nil, stats, fmt.Errorf("core: kNN graph has %d nodes, base has %d", knn.N(), n)
	}
	if p.L <= 0 {
		p.L = 40
	}
	if p.M <= 0 {
		p.M = 30
	}

	// The kNN graph is read-only for steps ii-iii; flatten it once so every
	// search-collect pass runs on the contiguous layout.
	phase := time.Now()
	knnFlat := graphutil.Flatten(knn)

	// Step ii: navigating node = approximate medoid. Search the kNN graph
	// for the centroid starting from a random node.
	centroid := vecmath.Centroid(base)
	rng := rand.New(rand.NewSource(p.Seed))
	start := int32(rng.Intn(n))
	navCtx := getCtx()
	navCtx.startBuf[0] = start
	nav := SearchOnGraphCtx(navCtx, knnFlat, base, centroid, navCtx.startBuf[:], 1, p.L, nil, nil).Neighbors[0].ID
	putCtx(navCtx)
	stats.Phases.Navigate = time.Since(phase)

	// Step iii: per-node search-collect-select, one reused SearchContext
	// (pool, visited stamps, collect/dedupe/selection scratch) per worker
	// goroutine. The only per-node allocation is the retained adjacency
	// list itself.
	phase = time.Now()
	adj := make([][]int32, n)
	workers := graphutil.ParallelWorkers(n)
	ctxs := make([]*SearchContext, workers)
	for w := range ctxs {
		ctxs[w] = NewSearchContext()
	}
	graphutil.ParallelForWorkers(workers, n, func(w, i int) {
		ctx := ctxs[w]
		v := base.Row(i)
		visited := ctx.collect[:0]
		ctx.startBuf[0] = nav
		SearchOnGraphCtx(ctx, knnFlat, base, v, ctx.startBuf[:], 1, p.L, nil, &visited)
		// Merge in v's kNN-graph neighbors: the approximate NNG edges are
		// essential for monotonicity (Section 3.3, Figure 4).
		visited = ctx.appendScored(base, v, knn.Adj[i], visited)
		cands := dedupeSortedCtx(ctx, n, visited, int32(i))
		if p.C > 0 && len(cands) > p.C {
			cands = cands[:p.C]
		}
		sel := SelectMRNGInto(base, v, cands, p.M, ctx, ctx.idBuf[:0])
		ctx.idBuf = sel[:0]
		adj[i] = append(make([]int32, 0, len(sel)), sel...)
		ctx.collect = visited[:0]
	})
	stats.Phases.Collect = time.Since(phase)

	// Reverse-edge insertion ("InterInsert" in the reference
	// implementation): offer every selected edge p→r back to r. Without
	// overflow, the reverse edge is appended as-is; past the degree cap the
	// merged list is re-pruned with the MRNG rule. The paper's Algorithm 2
	// leaves this step implicit, but it is what gives the NSG its reported
	// average out-degree (~26 on SIFT1M vs ~7 for a pure one-sided prune)
	// and robust in-connectivity for search.
	phase = time.Now()
	interInsert(adj, base, p.M, ctxs)
	stats.Phases.InterInsert = time.Since(phase)

	g := &graphutil.Graph{Adj: adj}

	// Step iv: DFS spanning repair from the navigating node.
	phase = time.Now()
	stats.TreeRepairEdges, stats.TreePasses = repairConnectivity(g, base, nav, p)
	stats.Phases.Repair = time.Since(phase)

	idx := &NSG{Graph: g, Navigating: nav, Base: base, M: p.M}
	// Freeze the serving layout once at construction.
	phase = time.Now()
	idx.flat.Store(graphutil.Flatten(g))
	stats.Phases.Flatten = time.Since(phase)
	return idx, stats, nil
}

// SelectMRNG applies the MRNG edge-selection rule (Definition 5) to a
// candidate list sorted ascending by distance to v, returning at most m
// neighbor ids. A candidate q is rejected iff some already selected r is
// strictly closer to q than v is (r occludes q: vq is the longest edge of
// triangle vqr). The result is freshly allocated; hot build loops should
// prefer SelectMRNGInto.
func SelectMRNG(base vecmath.Matrix, v []float32, cands []vecmath.Neighbor, m int) []int32 {
	ctx := getCtx()
	sel := SelectMRNGInto(base, v, cands, m, ctx, nil)
	putCtx(ctx)
	return sel
}

// SelectMRNGInto is SelectMRNG with caller-owned scratch: the working set
// lives in ctx and the chosen ids are appended to out (pass a reused
// buffer truncated to [:0]). With a per-worker context, edge selection
// allocates nothing beyond what out itself needs.
//
// Each kept neighbour costs one batched gather: the first candidate no
// kept one occludes is kept, scored against every later live candidate by
// vecmath.L2ToRows, and those it occludes are compacted away without a
// branch. A candidate meets the kept neighbours in the order the per-pair
// loop tries them and δ(r,q) has the bits of δ(q,r), so the decisions are
// that loop's; the only extra pairs lie past its stop at the m-th keep.
func SelectMRNGInto(base vecmath.Matrix, v []float32, cands []vecmath.Neighbor, m int, ctx *SearchContext, out []int32) []int32 {
	if m <= 0 {
		return out
	}
	// alive and dv: the candidates no kept neighbour occludes yet, in list
	// order, and their distances to v; gath holds one gather's distances.
	n := len(cands)
	alive := slices.Grow(ctx.alive[:0], n)[:n]
	ctx.alive = alive
	scratch := ctx.distScratch(2 * n)
	dv, gath := scratch[:n], scratch[n:]
	for i, c := range cands {
		alive[i], dv[i] = c.ID, c.Dist
	}
	for kept := 1; len(alive) > 0; kept++ {
		r := alive[0]
		out = append(out, r)
		if kept == m {
			break
		}
		rest, g := alive[1:], gath[:len(alive)-1]
		vecmath.L2ToRows(base, base.Row(int(r)), rest, g)
		// rest[j] is alive[j+1]: each write lands before the next read.
		w := 0
		for j, q := range rest {
			d := dv[j+1]
			alive[w], dv[w] = q, d
			keep := 0
			if !(g[j] < d) {
				keep = 1
			}
			w += keep
		}
		alive, dv = alive[:w], dv[:w]
	}
	return out
}

// interInsert adds reverse edges: for every selected edge p→r, p is offered
// as an out-neighbor of r. Offers are appended while r has spare degree;
// once r exceeds the cap m, r's merged neighbor list is re-pruned with the
// MRNG rule. Offers are laid out in one CSR-style flat array (three fixed
// allocations instead of one append-grown list per node), and each worker
// reuses its SearchContext's epoch-stamped dedupe set, distance buffer and
// selection scratch across nodes.
func interInsert(adj [][]int32, base vecmath.Matrix, m int, ctxs []*SearchContext) {
	n := len(adj)
	// Counting pass → prefix sums → fill: offers for node r live in
	// flat[off[r]:off[r+1]], written in ascending order of the offering
	// node so the merge below is deterministic.
	off := make([]int32, n+1)
	for p := range adj {
		for _, r := range adj[p] {
			off[r+1]++
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	flat := make([]int32, off[n])
	cursor := make([]int32, n)
	copy(cursor, off[:n])
	for p := range adj {
		for _, r := range adj[p] {
			flat[cursor[r]] = int32(p)
			cursor[r]++
		}
	}
	graphutil.ParallelForWorkers(len(ctxs), n, func(w, r int) {
		offers := flat[off[r]:off[r+1]]
		if len(offers) == 0 {
			return
		}
		ctx := ctxs[w]
		v := base.Row(r)
		// Membership via epoch stamps in place of the seed's per-node map.
		ctx.dedupe.Reset(n)
		ctx.dedupe.Visit(int32(r))
		for _, x := range adj[r] {
			ctx.dedupe.Visit(x)
		}
		changed := false
		for _, p := range offers {
			if !ctx.dedupe.Visit(p) {
				continue
			}
			adj[r] = append(adj[r], p)
			changed = true
		}
		if !changed || len(adj[r]) <= m {
			return
		}
		// Overflow: batch-gather distances to the merged list, order it,
		// and re-prune with the MRNG rule. The merged ids are unique by
		// construction, so sorting suffices — no dedupe map needed.
		cands := ctx.appendScored(base, v, adj[r], ctx.collect[:0])
		sortNeighbors(ctx, cands)
		sel := SelectMRNGInto(base, v, cands, m, ctx, ctx.idBuf[:0])
		ctx.idBuf = sel[:0]
		adj[r] = append(adj[r][:0], sel...)
		ctx.collect = cands[:0]
	})
}

// repairConnectivity implements Algorithm 2 lines 24-32: repeatedly DFS from
// the navigating node and, while unreached nodes remain, attach each to its
// approximate nearest reachable neighbor found by Algorithm 1 on the current
// graph. Returns (edges added, passes run).
//
// Every unreached node is attached within one pass: after each attachment
// the newly reachable component is marked incrementally (graphutil.Reacher),
// so nodes it absorbed are skipped instead of re-running a full DFS per
// added edge the way the seed implementation did. A second pass only
// verifies the fixpoint.
func repairConnectivity(g *graphutil.Graph, base vecmath.Matrix, nav int32, p BuildParams) (int, int) {
	added, passes := 0, 0
	ctx := NewSearchContext() // the graph mutates between passes; reuse one context over the list layout
	n := g.N()
	var reach graphutil.Reacher
	var unreached []int32
	for {
		passes++
		reach.Reset(n)
		reach.Mark(g, nav)
		unreached = reach.AppendUnreached(unreached[:0])
		if len(unreached) == 0 {
			return added, passes
		}
		for _, u := range unreached {
			if reach.Visited(u) {
				// Already absorbed by an earlier attachment this pass.
				continue
			}
			// Search for u from the navigating node; the result is the
			// nearest *reachable* node because search can only visit the
			// reachable component.
			ctx.startBuf[0] = nav
			res := SearchOnGraphListCtx(ctx, g.Adj, base, base.Row(int(u)), ctx.startBuf[:], 1, p.L, nil, nil)
			if len(res.Neighbors) == 0 {
				continue
			}
			anchor := res.Neighbors[0].ID
			if anchor == u || !reach.Visited(anchor) {
				continue
			}
			g.Adj[anchor] = append(g.Adj[anchor], u)
			added++
			// Extend the reachable set by u's out-component so later
			// unreached nodes it covers are skipped.
			reach.Mark(g, u)
		}
	}
}

// Search runs Algorithm 1 on the NSG from the navigating node, returning the
// k nearest candidates using a pool of size l in a caller-owned slice — the
// Search(q, k, l, counter) shape every index in internal/ shares for the
// experiment harness. counter may be nil. Serving loops use Query.
func (x *NSG) Search(query []float32, k, l int, counter *vecmath.Counter) []vecmath.Neighbor {
	ctx := getCtx()
	out := copyNeighbors(x.Query(ctx, query, Query{K: k, L: l, Counter: counter}).Neighbors)
	putCtx(ctx)
	return out
}

// Query is Snapshot.Query over the index's current state: it traverses the
// cached flat layout from the navigating node (on a quantized index, in code
// space with an exact rerank) and emits public ids. The result aliases ctx;
// reuse ctx across queries from one goroutine and the steady state performs
// zero allocations.
func (x *NSG) Query(ctx *SearchContext, vec []float32, q Query) SearchResult {
	v := x.view()
	return v.Query(ctx, vec, q)
}

// Stats summarizes the index the way Table 2 reports it.
type IndexStats struct {
	N          int
	AvgDegree  float64
	MaxDegree  int
	IndexBytes int64
	Reachable  int // nodes reachable from the navigating node
}

// Stats computes degree and memory statistics. The reachability count — a
// full graph traversal — is computed once and cached until the graph
// mutates, so Stats is cheap enough to call from serving loops.
func (x *NSG) Stats() IndexStats {
	if x.Graph == nil {
		// Mapped index: derive everything from the flat serving layout.
		f := x.FlatView()
		var sum, max int
		for i := 0; i < f.Nodes; i++ {
			d := f.Degree(int32(i))
			sum += d
			if d > max {
				max = d
			}
		}
		avg := 0.0
		if f.Nodes > 0 {
			avg = float64(sum) / float64(f.Nodes)
		}
		return IndexStats{
			N:          f.Nodes,
			AvgDegree:  avg,
			MaxDegree:  max,
			IndexBytes: int64(f.Nodes) * int64(f.Stride-1) * 4,
			Reachable:  x.reachableCount(),
		}
	}
	d := x.Graph.Degrees()
	return IndexStats{
		N:          x.Graph.N(),
		AvgDegree:  d.Avg,
		MaxDegree:  d.Max,
		IndexBytes: x.Graph.IndexBytes(),
		Reachable:  x.reachableCount(),
	}
}

// IndexBytes returns the index footprint under the paper's Table 2
// accounting (N * maxDegree * 4), valid for both heap and mapped indexes
// (the latter have no adjacency-list Graph at all; stride-1 is maxDegree).
func (x *NSG) IndexBytes() int64 {
	if x.Graph == nil {
		f := x.FlatView()
		return int64(f.Nodes) * int64(f.Stride-1) * 4
	}
	return x.Graph.IndexBytes()
}

func (x *NSG) reachableCount() int {
	if v := x.reach.Load(); v > 0 {
		return int(v - 1)
	}
	var r int
	if x.Graph == nil {
		r = x.FlatView().ReachableFrom(x.Navigating)
	} else {
		r = x.Graph.ReachableFrom(x.Navigating)
	}
	x.reach.Store(int64(r) + 1)
	return r
}

const (
	// nsgFileMagic marks the original graph-only record; files carrying it
	// predate quantization and remain loadable unchanged.
	nsgFileMagic = 0x4e534746 // "NSGF"
	// nsgQuantMagic marks the extended record: the same header plus a flags
	// word, followed by optional id-remap and SQ8 sections. A distinct
	// magic (rather than a version field appended to NSGF) means old
	// readers reject new files at the first check instead of misparsing.
	nsgQuantMagic = 0x4e534751 // "NSGQ"

	nsgFlagRemap = 1 << 0 // id-remap table follows the graph
	nsgFlagQuant = 1 << 1 // SQ8 quantizer + code matrix follow
	// nsgFlagQuant4 is reserved. It marked the int4 quantizer and packed
	// codes, a scheme that was removed; readers reject it as an unknown bit,
	// and it must not be reused, so an old int4 file is never misread.
	nsgFlagQuant4 = 1 << 2
	nsgFlagMeta   = 1 << 3 // metadata column-store blob follows (after quant)

	// maxMetaBlob bounds the metadata section a reader will allocate for —
	// far above any real column store, far below a corrupt length's reach.
	maxMetaBlob = 1 << 30
)

// Write serializes the index (graph + navigating node + degree cap, plus
// the id-remap table and SQ8 grid/codes when present — storing codes and
// scales lets a load skip retraining and re-encoding). The base vectors are
// not serialized — like the paper's index files, vectors live in their own
// dataset file and are re-attached on load, in public id order.
func (x *NSG) Write(w io.Writer) error {
	if x.Graph == nil {
		// A mapped index has no adjacency-list form to stream; its native
		// serialization is the aligned record it was opened from.
		return fmt.Errorf("core: stream-serializing a mapped index (use WriteMapped): %w", ErrReadOnly)
	}
	bw := bufio.NewWriter(w)
	flags := uint32(0)
	if x.PubIDs != nil {
		flags |= nsgFlagRemap
	}
	if x.Quant != nil {
		flags |= nsgFlagQuant
	}
	if x.Meta != nil {
		flags |= nsgFlagMeta
	}
	if flags == 0 {
		hdr := make([]byte, 12)
		binary.LittleEndian.PutUint32(hdr[0:], nsgFileMagic)
		binary.LittleEndian.PutUint32(hdr[4:], uint32(x.Navigating))
		binary.LittleEndian.PutUint32(hdr[8:], uint32(x.M))
		if _, err := bw.Write(hdr); err != nil {
			return fmt.Errorf("core: write header: %w", err)
		}
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("core: flush header: %w", err)
		}
		if _, err := x.Graph.WriteTo(w); err != nil {
			return err
		}
		return nil
	}
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint32(hdr[0:], nsgQuantMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(x.Navigating))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(x.M))
	binary.LittleEndian.PutUint32(hdr[12:], flags)
	if _, err := bw.Write(hdr); err != nil {
		return fmt.Errorf("core: write header: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("core: flush header: %w", err)
	}
	if _, err := x.Graph.WriteTo(w); err != nil {
		return err
	}
	if x.PubIDs != nil {
		if err := writeRemap(bw, x.PubIDs); err != nil {
			return err
		}
	}
	if x.Quant != nil {
		if err := quant.WriteQuantizer(bw, &x.Quant.Q); err != nil {
			return err
		}
		if err := quant.WriteCodes(bw, x.Quant.Codes); err != nil {
			return err
		}
	}
	if x.Meta != nil {
		if err := writeMetaBlob(bw, x.Meta); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeMetaBlob writes the metadata column store as one length-prefixed,
// self-checksummed blob (the shared NSMD encoding every container embeds).
func writeMetaBlob(bw *bufio.Writer, s *meta.Store) error {
	blob := s.AppendEncode(nil)
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(blob)))
	if _, err := bw.Write(lenBuf[:]); err != nil {
		return fmt.Errorf("core: write meta size: %w", err)
	}
	if _, err := bw.Write(blob); err != nil {
		return fmt.Errorf("core: write meta: %w", err)
	}
	return nil
}

// readMetaBlob reads a length-prefixed NSMD blob and decodes it against the
// expected row count.
func readMetaBlob(r io.Reader, wantRows int) (*meta.Store, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("core: read meta size: %w", err)
	}
	size := int(binary.LittleEndian.Uint32(lenBuf[:]))
	if size < 0 || size > maxMetaBlob {
		return nil, fmt.Errorf("core: meta section size %d out of range", size)
	}
	blob := make([]byte, size)
	if _, err := io.ReadFull(r, blob); err != nil {
		return nil, fmt.Errorf("core: read meta: %w", err)
	}
	s, err := meta.Decode(blob, wantRows)
	if err != nil {
		return nil, fmt.Errorf("core: meta section: %w", err)
	}
	return s, nil
}

// writeRemap encodes the internal→public id table through the shared
// chunked codec, the same discipline as the vector codec.
func writeRemap(bw *bufio.Writer, ids []int32) error {
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(ids)))
	if _, err := bw.Write(lenBuf[:]); err != nil {
		return fmt.Errorf("core: write remap size: %w", err)
	}
	if err := chunkio.WriteInt32s(bw, ids); err != nil {
		return fmt.Errorf("core: write remap: %w", err)
	}
	return nil
}

// readRemap decodes a remap table of exactly n ids and verifies it is a
// permutation of [0,n).
func readRemap(r io.Reader, n int) ([]int32, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("core: read remap size: %w", err)
	}
	if got := int(binary.LittleEndian.Uint32(lenBuf[:])); got != n {
		return nil, fmt.Errorf("core: remap table has %d entries for %d nodes", got, n)
	}
	ids := make([]int32, n)
	if err := chunkio.ReadInt32s(r, ids); err != nil {
		return nil, fmt.Errorf("core: read remap: %w", err)
	}
	seen := make([]bool, n)
	for _, id := range ids {
		if id < 0 || int(id) >= n || seen[id] {
			return nil, fmt.Errorf("core: remap entry %d is not a permutation of [0,%d)", id, n)
		}
		seen[id] = true
	}
	return ids, nil
}

// ReadNSG deserializes an index written by Write and attaches base, whose
// rows must be in public id order (the order persistence containers store).
// The index takes ownership of base; for relayouted indexes the remap
// section restores the internal order by permuting base's rows in place.
func ReadNSG(r io.Reader, base vecmath.Matrix) (*NSG, error) {
	// Normalize to one buffered reader shared with graphutil.ReadFrom (a
	// bufio.Reader passes through bufio.NewReader unchanged), so trailing
	// sections are never swallowed by a second layer of read-ahead.
	br := bufio.NewReader(r)
	hdr := make([]byte, 12)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("core: read header: %w", err)
	}
	flags := uint32(0)
	switch binary.LittleEndian.Uint32(hdr[0:]) {
	case nsgFileMagic:
	case nsgQuantMagic:
		var fb [4]byte
		if _, err := io.ReadFull(br, fb[:]); err != nil {
			return nil, fmt.Errorf("core: read flags: %w", err)
		}
		flags = binary.LittleEndian.Uint32(fb[:])
		// Unknown bits mean sections this reader cannot consume: reject
		// up front (the reject-don't-misparse discipline the distinct
		// magic exists for) instead of leaving orphaned bytes that would
		// corrupt the next record of an embedding stream.
		// The reserved nsgFlagQuant4 bit is one of them.
		if flags&^uint32(nsgFlagRemap|nsgFlagQuant|nsgFlagMeta) != 0 {
			return nil, fmt.Errorf("core: unsupported NSG record flags %#x", flags)
		}
	default:
		return nil, fmt.Errorf("core: bad NSG file magic")
	}
	nav := int32(binary.LittleEndian.Uint32(hdr[4:]))
	m := int(binary.LittleEndian.Uint32(hdr[8:]))
	// The node count must match base (checked inside ReadFromN, before the
	// adjacency allocation, so a corrupt count cannot demand gigabytes).
	g, err := graphutil.ReadFromN(br, base.Rows)
	if err != nil {
		return nil, err
	}
	if int(nav) >= g.N() || nav < 0 {
		return nil, fmt.Errorf("core: navigating node %d out of range", nav)
	}
	x := &NSG{Graph: g, Navigating: nav, Base: base, M: m}
	if flags&nsgFlagRemap != 0 {
		pub, err := readRemap(br, g.N())
		if err != nil {
			return nil, err
		}
		x.PubIDs = pub
		inv := make([]int32, len(pub))
		for internal, p := range pub {
			inv[p] = int32(internal)
		}
		x.toInternal = inv
		// The caller supplied rows in public order; restore the internal
		// (relayouted) order the graph was persisted in. The permutation is
		// applied in place (cycle following), so loading a relayouted index
		// never holds two copies of the vectors — at the serving scales
		// this feature targets, a transient second matrix would double
		// peak memory.
		permuteRows(base.Data, base.Dim, pub)
	}
	if flags&nsgFlagQuant != 0 {
		qz, err := quant.ReadQuantizer(br)
		if err != nil {
			return nil, err
		}
		// Shape-checked before allocation: a corrupt codes header must not
		// demand rows*dim bytes the record cannot hold.
		codes, err := quant.ReadCodesShape(br, base.Rows, base.Dim)
		if err != nil {
			return nil, err
		}
		if qz.Dim() != base.Dim || codes.Dim != base.Dim || codes.Rows != base.Rows {
			return nil, fmt.Errorf("core: quant section shape %dx%d (dim %d) does not match base %dx%d",
				codes.Rows, codes.Dim, qz.Dim(), base.Rows, base.Dim)
		}
		x.Quant = &Quantized{Q: qz, Codes: codes}
		x.Quant.measureRho(base)
	}
	if flags&nsgFlagMeta != 0 {
		m, err := readMetaBlob(br, base.Rows)
		if err != nil {
			return nil, err
		}
		x.Meta = m
	}
	// Freeze the serving layout once at load.
	x.flat.Store(graphutil.Flatten(g))
	return x, nil
}

// SaveFile writes the index to path, crash-safely (temp file + fsync +
// rename), so an interrupted save never leaves a truncated index where a
// valid one used to be.
func (x *NSG) SaveFile(path string) error {
	return mstore.WriteFileAtomic(path, x.Write)
}

// dedupeSortedCtx sorts candidates ascending by (dist,id) in place and
// removes duplicate ids (keeping each id's nearest occurrence) and the node
// itself. Membership is tracked with the context's epoch-stamped dedupe
// array over n node slots, replacing the two per-call maps the seed
// implementation allocated; with a per-worker context the whole operation
// is allocation-free.
func dedupeSortedCtx(ctx *SearchContext, n int, cands []vecmath.Neighbor, self int32) []vecmath.Neighbor {
	keys := sortedKeys(ctx, cands)
	ctx.dedupe.Reset(n)
	out := cands[:0]
	for _, k := range keys {
		c := unpackKey(k)
		if c.ID == self || !ctx.dedupe.Visit(c.ID) {
			continue
		}
		out = append(out, c)
	}
	return out
}

// sortNeighbors sorts cands ascending by (dist,id), the order of
// vecmath.CompareNeighbors, through the context's key scratch.
func sortNeighbors(ctx *SearchContext, cands []vecmath.Neighbor) {
	for i, k := range sortedKeys(ctx, cands) {
		cands[i] = unpackKey(k)
	}
}

// sortedKeys packs cands into the context's key scratch as pool keys and
// sorts the words: for distances that are non-negative and not NaN the key
// order is the (dist,id) order (see pool), and an integer sort is several
// times cheaper than a comparator sort over 8-byte structs.
func sortedKeys(ctx *SearchContext, cands []vecmath.Neighbor) []uint64 {
	keys := ctx.keys[:0]
	for _, c := range cands {
		keys = append(keys, packKey(c.ID, c.Dist))
	}
	if cap(ctx.keys2) < len(keys) {
		ctx.keys2 = make([]uint64, cap(keys))
	}
	ctx.keys, ctx.keys2 = radixSortKeys(keys, ctx.keys2[:len(keys)])
	return ctx.keys
}

// radixMinKeys is the length below which radixSortKeys defers to
// slices.Sort: the L-sized rerank and reverse-edge lists stay on pdqsort,
// Algorithm 2's ~600-key candidate lists take the radix passes.
const radixMinKeys = 64

// radixSortKeys sorts keys ascending with an LSD radix sort over 8-bit
// digits, ping-ponging between keys and tmp (len(tmp) == len(keys)). It
// returns the slice now holding the sorted words and the other one as spare
// scratch. One read fills all eight digit histograms; a digit on which
// every key agrees (one bucket holds them all) costs no pass, so a
// candidate list over a few thousand ids with integer-valued distances
// takes four. Being an integer sort, its order equals slices.Sort's.
func radixSortKeys(keys, tmp []uint64) (sorted, spare []uint64) {
	n := len(keys)
	if n < radixMinKeys {
		slices.Sort(keys)
		return keys, tmp
	}
	var count [8][256]uint32
	for _, k := range keys { // unrolled: the loop form costs the sort most of its gain
		count[0][byte(k)]++
		count[1][byte(k>>8)]++
		count[2][byte(k>>16)]++
		count[3][byte(k>>24)]++
		count[4][byte(k>>32)]++
		count[5][byte(k>>40)]++
		count[6][byte(k>>48)]++
		count[7][byte(k>>56)]++
	}
	src, dst := keys, tmp[:n]
	for d := range count {
		shift, c := 8*d, &count[d]
		if c[byte(src[0]>>shift)] == uint32(n) {
			continue
		}
		var pos uint32
		for b, x := range c {
			c[b] = pos
			pos += x
		}
		for _, k := range src {
			b := byte(k >> shift)
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	return src, dst
}

// NearPowerOfTwo reports 2^ceil(log2(v)) — helper for pool sizing in tools.
func NearPowerOfTwo(v int) int {
	if v <= 1 {
		return 1
	}
	return 1 << int(math.Ceil(math.Log2(float64(v))))
}
