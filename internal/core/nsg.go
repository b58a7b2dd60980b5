package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/graphutil"
	"repro/internal/vecmath"
)

// BuildParams configures NSGBuild (Algorithm 2). The three parameters match
// the paper's (k, l, m): k is carried by the supplied kNN graph, L is the
// candidate pool size for the search-and-collect pass, and M caps the
// out-degree of every node.
type BuildParams struct {
	L    int // candidate pool size for search-collect (paper's l)
	M    int // maximum out-degree (paper's m)
	Seed int64
}

// NSG is one shard's index: the pruned graph, its fixed entry point, the
// base vectors it indexes, its id remap and, when quantized, its codes.
// Metadata and files belong to the container that holds it.
//
// Searches traverse one form of the graph, heap or mapped: CSR rows
// (graphutil.CSR), an offsets array and one edge slab, which are never
// written once laid out. A heap index owns its slabs; a mapped one points
// them into a file (see mapped.go). Insert edits adjacency lists instead:
// the first Insert after a layout unpacks the CSR into rows over one copied
// slab, and the next Snapshot or search lays them out afresh, so a
// published graph never changes.
type NSG struct {
	Navigating int32 // the navigating node: search always starts here
	Base       vecmath.Matrix
	M          int // degree cap the index was built with

	// Quant, when non-nil, holds the trained SQ8 grid and the code matrix;
	// every query path then runs the two-phase quantized search (code-space
	// expansion, exact rerank). See EnableQuantization.
	Quant *Quantized
	// PubIDs translates internal node ids to the caller-visible ids after
	// the cache-aware Relayout every public build ends with; a graph that
	// was never relaid carries the identity. Query applies it to every
	// emitted result, and toInternal is its inverse.
	PubIDs     []int32
	toInternal []int32

	flat    *graphutil.CSR
	lists   [][]int32 // the rows Inserts edit, until the next layout; nil when none
	release func()    // drops the mapped record's pages (ReleaseMapped)
}

// newNSG wraps a graph with identity id tables.
func newNSG(flat *graphutil.CSR, nav int32, base vecmath.Matrix, m int) *NSG {
	return &NSG{flat: flat, Navigating: nav, Base: base, M: m, PubIDs: identity(flat.N()), toInternal: identity(flat.N())}
}

// identity returns the ids 0..n-1.
func identity(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// FlatView returns the CSR adjacency the searcher traverses, laying out
// the rows Inserts left first. The CSR is never written; after the next
// Insert the index's graph is another one.
func (x *NSG) FlatView() *graphutil.CSR {
	if x.lists != nil {
		x.flat, x.lists = graphutil.Flatten(&graphutil.Graph{Adj: x.lists}), nil
	}
	return x.flat
}

// edit returns the rows Insert edits, unpacking the CSR into them over one
// copied slab the first time after a layout. Each row is capped at its
// length, so a row that grows copies only itself.
func (x *NSG) edit() [][]int32 {
	if x.lists == nil {
		off, edges := x.flat.Slabs()
		edges = slices.Clone(edges)
		x.lists = make([][]int32, x.flat.N())
		for i := range x.lists {
			x.lists[i] = edges[off[i]:off[i+1]:off[i+1]]
		}
	}
	return x.lists
}

// PhaseTimings records the wall-clock cost of each Algorithm 2 phase, so
// build-performance work (this repository's Table 2 angle) is measurable
// per phase rather than only end to end.
type PhaseTimings struct {
	Navigate    time.Duration // medoid location on the kNN graph (step ii, incl. its flatten)
	Collect     time.Duration // per-node search-collect-select (step iii)
	InterInsert time.Duration // reverse-edge insertion and overflow re-prunes
	Repair      time.Duration // DFS spanning repair (step iv)
	Flatten     time.Duration // laying the graph out in CSR rows
}

// Total sums the phase timings.
func (t PhaseTimings) Total() time.Duration {
	return t.Navigate + t.Collect + t.InterInsert + t.Repair + t.Flatten
}

// BuildStats reports what Algorithm 2 did, feeding Tables 2-4.
type BuildStats struct {
	TreeRepairEdges int // edges added by the DFS spanning repair
	TreePasses      int // DFS passes until fully connected
	// RepairOverCap counts the repair edges that took a row past M: no
	// reachable node of the search's result list was under the cap, so the
	// edge went to the nearest one regardless.
	RepairOverCap int
	Phases        PhaseTimings // wall clock per build phase
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
	stats.TreeRepairEdges, stats.TreePasses, stats.RepairOverCap = repairConnectivity(g, base, nav, p)
	stats.Phases.Repair = time.Since(phase)

	phase = time.Now()
	idx := newNSG(graphutil.Flatten(g), nav, base, p.M)
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
// graph. Returns (edges added, passes run, edges added past the cap).
//
// The paper attaches u to the nearest reachable node whatever its degree,
// so one node could take several repair edges and pass M. Here u goes to
// the nearest node of Algorithm 1's result list that is under M, and to
// the nearest one only when every listed node is full; those edges are
// counted, so MaxDegree is a cap apart from them.
//
// Every unreached node is attached within one pass: after each attachment
// the newly reachable component is marked incrementally (graphutil.Reacher),
// so nodes it absorbed are skipped instead of re-running a full DFS per
// added edge the way the seed implementation did. A second pass only
// verifies the fixpoint.
func repairConnectivity(g *graphutil.Graph, base vecmath.Matrix, nav int32, p BuildParams) (int, int, int) {
	added, passes, overCap := 0, 0, 0
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
			return added, passes, overCap
		}
		for _, u := range unreached {
			if reach.Visited(u) {
				// Already absorbed by an earlier attachment this pass.
				continue
			}
			// Search for u from the navigating node; the results are
			// *reachable* nodes because search can only visit the reachable
			// component, nearest first.
			ctx.startBuf[0] = nav
			res := SearchOnGraphListCtx(ctx, g.Adj, base, base.Row(int(u)), ctx.startBuf[:], p.L, p.L, nil, nil)
			if len(res.Neighbors) == 0 {
				continue
			}
			anchor := res.Neighbors[0].ID
			if anchor == u || !reach.Visited(anchor) {
				continue
			}
			under := slices.IndexFunc(res.Neighbors, func(c vecmath.Neighbor) bool {
				return c.ID != u && reach.Visited(c.ID) && len(g.Adj[c.ID]) < p.M
			})
			if under >= 0 {
				anchor = res.Neighbors[under].ID
			} else {
				overCap++
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
// flat rows from the navigating node (on a quantized index, in code space
// with an exact rerank) and emits public ids. The result aliases ctx;
// reuse ctx across queries from one goroutine and the steady state performs
// zero allocations.
func (x *NSG) Query(ctx *SearchContext, vec []float32, q Query) SearchResult {
	v := x.view()
	return v.Query(ctx, vec, q)
}

// IndexStats summarizes the index: Table 2's degree columns and the bytes
// its graph holds.
type IndexStats struct {
	N          int
	AvgDegree  float64
	MaxDegree  int
	IndexBytes int64
	Reachable  int // nodes reachable from the navigating node
}

// Stats computes degree and memory statistics, and the reachability count
// by a full graph traversal on each call. Serving reads Snapshot.Stats,
// which skips the traversal.
func (x *NSG) Stats() IndexStats {
	g := x.FlatView()
	st := flatStats(g)
	st.Reachable = g.ReachableFrom(x.Navigating)
	return st
}

// flatStats is Stats without the reachability count. IndexBytes is what
// the CSR graph holds, 4(N+1) + 4*edges bytes; graphutil.Graph.IndexBytes
// keeps the paper's Table 2 accounting (N * maxDegree * 4).
func flatStats(f *graphutil.CSR) IndexStats {
	d := f.Degrees()
	return IndexStats{N: f.N(), AvgDegree: d.Avg, MaxDegree: d.Max, IndexBytes: 4 * int64(f.N()+1+f.Edges())}
}

// The flags word of an NSGM record's header (see mapped.go).
const (
	nsgFlagRemap = 1 << 0 // id-remap section present
	nsgFlagQuant = 1 << 1 // SQ8 bounds and code sections present
	// nsgFlagQuant4 is reserved. It marked the int4 quantizer and packed
	// codes, a scheme that was removed; readers reject it as an unknown bit,
	// and it must not be reused, so an old int4 file is never misread.
	nsgFlagQuant4 = 1 << 2
	// nsgFlagMeta is reserved. It marked the metadata section of the
	// one-index files older builds wrote, which are no longer read; readers
	// reject it as an unknown bit, and it must not be reused.
	nsgFlagMeta = 1 << 3

	// maxDegreeCap bounds the degree cap M a record may claim.
	maxDegreeCap = 1 << 20
)

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
