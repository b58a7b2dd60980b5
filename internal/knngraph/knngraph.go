// Package knngraph builds k-nearest-neighbor graphs, the substrate NSG's
// Algorithm 2 consumes. Two builders are provided: an exact parallel
// brute-force builder (the small-scale reference) and NN-Descent (Dong et
// al., WWW 2011), the algorithm the paper uses for its million-scale
// experiments. The paper's DEEP100M runs swap in Faiss-GPU for this step;
// both are interchangeable producers of the same artifact.
package knngraph

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/graphutil"
	"repro/internal/vecmath"
)

// BuildExact constructs the exact kNN graph by parallel brute force:
// node i's adjacency holds its k nearest other points, ascending by
// distance. O(n^2 d) — intended for reference and test-scale data.
func BuildExact(base vecmath.Matrix, k int) (*graphutil.Graph, error) {
	if k <= 0 || k >= base.Rows {
		return nil, fmt.Errorf("knngraph: k=%d out of range for n=%d", k, base.Rows)
	}
	g := graphutil.New(base.Rows)
	// Collectors and result buffers are pooled and reused across rows
	// (TopK.Reset + ResultInto) so the O(n^2) scan allocates only the
	// retained adjacency lists.
	type exactScratch struct {
		top *vecmath.TopK
		res []vecmath.Neighbor
	}
	scratch := sync.Pool{New: func() any {
		return &exactScratch{top: vecmath.NewTopK(k)}
	}}
	graphutil.ParallelFor(base.Rows, func(i int) {
		s := scratch.Get().(*exactScratch)
		s.top.Reset(k)
		x := base.Row(i)
		for j := 0; j < base.Rows; j++ {
			if j == i {
				continue
			}
			s.top.Push(int32(j), vecmath.L2(x, base.Row(j)))
		}
		s.res = s.top.ResultInto(s.res)
		adj := make([]int32, len(s.res))
		for idx, n := range s.res {
			adj[idx] = n.ID
		}
		g.Adj[i] = adj
		scratch.Put(s)
	})
	return g, nil
}

// Params configures NN-Descent.
type Params struct {
	K int // neighbors per node in the output graph
	// Rho is the sample rate ρ for local joins. Dong et al.'s paper uses
	// ρ=1.0 (full sampling); this implementation defaults to 0.5 — the
	// practical setting KGraph popularized — because it roughly halves
	// join cost while the recall gate this repository enforces (≥0.90 on
	// the test datasets) still passes comfortably. Set 1.0 to match the
	// paper exactly. Values outside (0, 1] fall back to 0.5.
	Rho   float64
	Iters int // maximum iterations; <=0 falls back to 12
	// Delta is the early-termination threshold on the per-iteration update
	// rate (iteration stops once updates <= Delta·n·K). Values <= 0 are
	// invalid and fall back to the default 0.001 — a zero threshold would
	// disable early termination entirely and silently run all Iters.
	Delta float64
	Seed  int64
	// SampleRand is the size of the random initialization per node; it
	// defaults to K and is clamped to K (the fixed-stride neighbor slab
	// holds exactly K entries per node).
	SampleRand int
}

// DefaultParams returns the NN-Descent settings used across the experiments.
func DefaultParams(k int) Params {
	return Params{K: k, Rho: 0.5, Iters: 12, Delta: 0.001, Seed: 1}
}

// BuildForNSG builds the kNN graph every NSG build path hands Algorithm 2:
// k neighbours per row (at most n-1), by brute force when exact is set,
// otherwise the tree seeding plus one NN-Descent join round, since the
// collect searches repair what later rounds would (see rpTrees).
// DefaultParams, which iterates to Delta, is for graphs searched directly.
func BuildForNSG(base vecmath.Matrix, k int, exact bool, seed int64) (*graphutil.Graph, error) {
	k = min(k, base.Rows-1)
	if exact {
		return BuildExact(base, k)
	}
	p := DefaultParams(k)
	p.Iters, p.Seed = 1, seed
	return BuildNNDescent(base, p)
}

// nndStripes is the number of striped locks guarding neighbor-list inserts.
// A fixed pool of stripes replaces the seed implementation's one mutex per
// node: the working set stays a few cache lines instead of n mutexes, and
// with stripes ≫ workers the collision probability between two concurrent
// inserts stays negligible. Must be a power of two.
const nndStripes = 256

// nndLists is NN-Descent's working state in fixed-stride flat form: node i
// owns slots [i*K, (i+1)*K) of three parallel slabs (neighbor id, distance,
// "new" flag), kept sorted ascending by distance, plus its current size.
// worst[i] is node i's admission bound as float32 bits: unsetWorst until the
// slab is full, then dists[i*K+K-1], stored under the stripe lock whenever
// an insert changes a full slab. Five allocations for the whole build,
// regardless of n or iteration count.
type nndLists struct {
	k     int
	ids   []int32
	dists []float32
	isNew []bool
	size  []int32
	worst []atomic.Uint32
	locks [nndStripes]sync.Mutex
}

// unsetWorst is worst's value while a slab is not yet full. As an unsigned
// word it exceeds the bits of every distance L2 can produce (non-negative,
// +Inf included, never NaN), so nothing is rejected before the slab fills.
const unsetWorst = ^uint32(0)

func newNNDLists(n, k int) *nndLists {
	s := &nndLists{
		k:     k,
		ids:   make([]int32, n*k),
		dists: make([]float32, n*k),
		isNew: make([]bool, n*k),
		size:  make([]int32, n),
		worst: make([]atomic.Uint32, n),
	}
	for i := range s.worst {
		s.worst[i].Store(unsetWorst)
	}
	return s
}

// insert offers (id,dist) to node's bounded neighbor slab, keeping it sorted
// ascending and at most k long. Returns true if the slab changed. Safe for
// concurrent use: the node's stripe lock covers the dup-scan and the shift.
//
// Most offers late in a build are hopeless, so they are turned away before
// the lock: a full slab's worst distance only ever decreases, and for
// non-negative floats the bit order is the value order, so dist at or past
// a possibly stale worst is also at or past the current one — exactly the
// offers the locked check would reject. The slabs are therefore the same
// as with the lock alone, for any schedule.
func (s *nndLists) insert(node, id int32, dist float32) bool {
	if math.Float32bits(dist) >= s.worst[node].Load() {
		return false
	}
	lk := &s.locks[uint32(node)&(nndStripes-1)]
	lk.Lock()
	off := int(node) * s.k
	sz := int(s.size[node])
	if sz == s.k && dist >= s.dists[off+sz-1] {
		lk.Unlock()
		return false
	}
	for i := 0; i < sz; i++ {
		if s.ids[off+i] == id {
			lk.Unlock()
			return false
		}
	}
	// First position with a strictly larger distance (ties insert after,
	// matching the seed implementation's sort.Search predicate).
	lo, hi := 0, sz
	for lo < hi {
		mid := (lo + hi) / 2
		if s.dists[off+mid] > dist {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if sz < s.k {
		sz++
	}
	copy(s.ids[off+lo+1:off+sz], s.ids[off+lo:off+sz-1])
	copy(s.dists[off+lo+1:off+sz], s.dists[off+lo:off+sz-1])
	copy(s.isNew[off+lo+1:off+sz], s.isNew[off+lo:off+sz-1])
	s.ids[off+lo] = id
	s.dists[off+lo] = dist
	s.isNew[off+lo] = true
	s.size[node] = int32(sz)
	if sz == s.k {
		s.worst[node].Store(math.Float32bits(s.dists[off+sz-1]))
	}
	lk.Unlock()
	return true
}

// sortSlab insertion-sorts node's slab segment ascending by (dist, id) —
// used once per node at initialization, where segments are K long and
// nearly random; no allocation, unlike sort.Slice.
func (s *nndLists) sortSlab(node int32) {
	off := int(node) * s.k
	sz := int(s.size[node])
	for i := 1; i < sz; i++ {
		id, d, nw := s.ids[off+i], s.dists[off+i], s.isNew[off+i]
		j := i - 1
		for j >= 0 && (s.dists[off+j] > d || (s.dists[off+j] == d && s.ids[off+j] > id)) {
			s.ids[off+j+1] = s.ids[off+j]
			s.dists[off+j+1] = s.dists[off+j]
			s.isNew[off+j+1] = s.isNew[off+j]
			j--
		}
		s.ids[off+j+1] = id
		s.dists[off+j+1] = d
		s.isNew[off+j+1] = nw
	}
}

// BuildNNDescent constructs an approximate kNN graph with NN-Descent.
// The returned graph has exactly K neighbors per node, ascending by
// distance.
//
// The random start is refined by the leaves of rpTrees random-projection
// trees before the first round (seedFromTrees), so NN-Descent begins from
// lists that are mostly right and usually meets Delta in about four rounds.
//
// The implementation is engineered the way the query path is: all neighbor
// lists live in one fixed-stride [n*K] slab guarded by striped locks,
// forward/reverse sample buffers are laid out flat (CSR) and reused across
// iterations, and every local join computes its distances through the
// batched gather kernel vecmath.L2ToRows with per-worker scratch. On the
// steady state an iteration allocates nothing.
func BuildNNDescent(base vecmath.Matrix, p Params) (*graphutil.Graph, error) {
	n := base.Rows
	if p.K <= 0 || p.K >= n {
		return nil, fmt.Errorf("knngraph: K=%d out of range for n=%d", p.K, n)
	}
	if p.Iters <= 0 {
		p.Iters = 12
	}
	if p.Rho <= 0 || p.Rho > 1 {
		p.Rho = 0.5
	}
	if p.Delta <= 0 {
		// Delta=0 would disable early termination and silently run every
		// iteration; treat non-positive values as "use the default".
		p.Delta = 0.001
	}
	if p.SampleRand <= 0 || p.SampleRand > p.K {
		p.SampleRand = p.K
	}

	rng := rand.New(rand.NewSource(p.Seed))
	lists := newNNDLists(n, p.K)

	// Random initialization: each node gets SampleRand distinct random
	// neighbors marked new. Dedupe runs on an epoch-stamped array and the
	// per-node distances come from one batched gather.
	var seen graphutil.EpochVisited
	initIDs := make([]int32, p.SampleRand)
	for i := 0; i < n; i++ {
		seen.Reset(n)
		seen.Visit(int32(i))
		for cnt := 0; cnt < p.SampleRand; {
			j := int32(rng.Intn(n))
			if !seen.Visit(j) {
				continue
			}
			initIDs[cnt] = j
			cnt++
		}
		off := i * p.K
		copy(lists.ids[off:], initIDs)
		vecmath.L2ToRows(base, base.Row(i), initIDs, lists.dists[off:off+p.SampleRand])
		for j := 0; j < p.SampleRand; j++ {
			lists.isNew[off+j] = true
		}
		lists.size[i] = int32(p.SampleRand)
		lists.sortSlab(int32(i))
		if p.SampleRand == p.K {
			lists.worst[i].Store(math.Float32bits(lists.dists[off+p.K-1]))
		}
	}

	workers := graphutil.ParallelWorkers(n)
	seedFromTrees(base, lists, 2*p.K, p.Seed, workers)

	maxSample := int(p.Rho * float64(p.K))
	if maxSample < 1 {
		maxSample = 1
	}

	// Iteration-persistent sampling state: fixed-stride forward sample
	// slabs and CSR reverse lists, all reused across iterations.
	var (
		newFwd  = make([]int32, n*maxSample)
		oldFwd  = make([]int32, n*maxSample)
		newCnt  = make([]int32, n)
		oldCnt  = make([]int32, n)
		newOff  = make([]int32, n+1)
		oldOff  = make([]int32, n+1)
		newRev  = make([]int32, n*maxSample)
		oldRev  = make([]int32, n*maxSample)
		oldPool = make([]int32, p.K) // old-neighbor candidates of one node
	)

	// Per-worker join scratch: merged new/old id lists and a distance
	// buffer for the batched gathers. Reverse-list sampling uses a per-node
	// splitmix64 stream instead (see joinRand), so it does not depend on
	// which worker processes which node.
	type joinScratch struct {
		newList []int32
		oldList []int32
		dists   []float32
	}
	scratch := make([]*joinScratch, workers)
	for w := range scratch {
		scratch[w] = &joinScratch{
			newList: make([]int32, 0, 2*maxSample),
			oldList: make([]int32, 0, 2*maxSample),
			dists:   make([]float32, 2*maxSample),
		}
	}

	for iter := 0; iter < p.Iters; iter++ {
		// Phase 1a: sample forward neighbors into the fixed-stride slabs.
		// New entries are taken nearest-first (the slab is sorted) and
		// their flags cleared; old entries are pooled and sampled.
		for i := 0; i < n; i++ {
			off := i * p.K
			sz := int(lists.size[i])
			fwd := i * maxSample
			nNew, nOld, pooled := 0, 0, 0
			for idx := 0; idx < sz; idx++ {
				if lists.isNew[off+idx] {
					if nNew < maxSample {
						newFwd[fwd+nNew] = lists.ids[off+idx]
						lists.isNew[off+idx] = false
						nNew++
					}
				} else {
					oldPool[pooled] = lists.ids[off+idx]
					pooled++
				}
			}
			if pooled <= maxSample {
				nOld = copy(oldFwd[fwd:fwd+pooled], oldPool[:pooled])
			} else {
				// Partial Fisher-Yates over the pooled candidates.
				for j := 0; j < maxSample; j++ {
					pick := j + rng.Intn(pooled-j)
					oldPool[j], oldPool[pick] = oldPool[pick], oldPool[j]
					oldFwd[fwd+j] = oldPool[j]
				}
				nOld = maxSample
			}
			newCnt[i] = int32(nNew)
			oldCnt[i] = int32(nOld)
		}

		// Phase 1b: invert the forward samples into CSR reverse lists
		// (count → prefix-sum → fill), reusing the same backing arrays
		// every iteration.
		buildRevCSR(newFwd, newCnt, maxSample, newOff, newRev)
		buildRevCSR(oldFwd, oldCnt, maxSample, oldOff, oldRev)

		// Phase 2: local joins. For each node, pair up its new×(new∪old)
		// neighbors and try to improve both ends; distances per join pivot
		// come from batched gathers.
		var updates atomic.Int64
		graphutil.ParallelForWorkers(workers, n, func(w, i int) {
			s := scratch[w]
			// Keyed on (Seed, iter, node) so the sample a node draws is the
			// same regardless of goroutine scheduling — fixed seeds stay
			// reproducible per node (full-build determinism is still bounded
			// by the concurrent insert order, as in every real NN-Descent).
			jr := newJoinRand(p.Seed, iter, i)
			fwd := i * maxSample
			nl := append(s.newList[:0], newFwd[fwd:fwd+int(newCnt[i])]...)
			nl = reservoirSample(nl, newRev[newOff[i]:newOff[i+1]], maxSample, &jr)
			ol := append(s.oldList[:0], oldFwd[fwd:fwd+int(oldCnt[i])]...)
			ol = reservoirSample(ol, oldRev[oldOff[i]:oldOff[i+1]], maxSample, &jr)
			s.newList, s.oldList = nl[:0], ol[:0]

			var local int64
			need := len(nl) + len(ol)
			if cap(s.dists) < need {
				s.dists = make([]float32, need+need/2)
			}
			for a := 0; a < len(nl); a++ {
				u := nl[a]
				uRow := base.Row(int(u))
				rest := nl[a+1:]
				dNew := s.dists[:len(rest)]
				vecmath.L2ToRows(base, uRow, rest, dNew)
				for b, v := range rest {
					if v == u {
						continue
					}
					local += lists.insertPair(u, v, dNew[b])
				}
				dOld := s.dists[len(rest) : len(rest)+len(ol)]
				vecmath.L2ToRows(base, uRow, ol, dOld)
				for b, v := range ol {
					if v == u {
						continue
					}
					local += lists.insertPair(u, v, dOld[b])
				}
			}
			updates.Add(local)
		})
		if float64(updates.Load()) <= p.Delta*float64(n)*float64(p.K) {
			break
		}
	}

	// Extraction: one adjacency slab for the whole graph, subsliced per
	// node, instead of one allocation per node.
	g := graphutil.New(n)
	slab := make([]int32, 0, n*p.K)
	for i := 0; i < n; i++ {
		off := i * p.K
		sz := int(lists.size[i])
		start := len(slab)
		slab = append(slab, lists.ids[off:off+sz]...)
		g.Adj[i] = slab[start : start+sz : start+sz]
	}
	return g, nil
}

// insertPair offers the edge (u,v) with its precomputed distance to both
// endpoint slabs, returning the number of successful insertions (0..2).
func (s *nndLists) insertPair(u, v int32, d float32) int64 {
	var c int64
	if s.insert(u, v, d) {
		c++
	}
	if s.insert(v, u, d) {
		c++
	}
	return c
}

// rpTrees is the number of random-projection trees whose leaves seed
// NN-Descent (the EFANNA pipeline the paper builds with: tree-initialised
// NN-Descent). Fixed from a sweep on SIFT-like data, n = 8 000 x 128 d,
// K = 20, leaves of at most 2K = 40 rows, five build seeds, 2 vCPUs:
//
//	trees  rounds  NN-Descent  kNN accuracy vs BuildExact
//	0      6.8     520 ms      0.9923
//	8      4.8     380 ms      0.9933
//	10     4.0     375 ms      0.9941
//	12     4.0     390 ms      0.9950
//	16     4.0     425 ms      0.9963
//
// Ten is the fewest trees that stop every seed at four rounds; past it a
// tree buys accuracy, not time. From this start the NSG needs one round
// (BuildForNSG): against the graph iterated to Delta, kNN accuracy falls
// (SIFT-like 8k 0.994 -> 0.941, Gaussian-64 0.721 -> 0.294), while on five
// corpora the NSG's recall@10 at L = 60 moves by at most 0.006, its
// evaluations per query by at most 1.1% and its mean degree by at most
// 4.5% (README, "Construction performance", has the table).
const rpTrees = 10

// rpScratch is one worker's tree scratch, reused for every tree and leaf it
// handles: the row permutation the tree splits in place and the two pivot
// distance columns (the first doubles as a leaf join's distance buffer).
type rpScratch struct {
	perm   []int32
	da, db []float32
}

// seedFromTrees offers every pair of rows that share a leaf of one of
// rpTrees random-projection trees to the neighbor lists. A tree splits a
// row set into the rows nearer to one of two random pivots and the rest,
// recursively, until at most leaf rows remain, so a leaf gathers rows that
// are close to each other: its pairs replace most of the random start that
// the first NN-Descent rounds would otherwise spend repairing. Trees run in
// parallel, one per worker at a time; inserts go through the same striped,
// order-independent insert as the joins.
func seedFromTrees(base vecmath.Matrix, lists *nndLists, leaf int, seed int64, workers int) {
	n := base.Rows
	workers = min(workers, rpTrees)
	scratch := make([]rpScratch, workers)
	for w := range scratch {
		scratch[w] = rpScratch{perm: make([]int32, n), da: make([]float32, n), db: make([]float32, n)}
	}
	graphutil.ParallelForWorkers(workers, rpTrees, func(w, t int) {
		s := &scratch[w]
		for i := range s.perm {
			s.perm[i] = int32(i)
		}
		// Negative iteration numbers key the tree streams apart from the
		// joins' (seed, iteration, node) streams.
		jr := newJoinRand(seed, -1-t, 0)
		s.split(base, lists, s.perm, leaf, &jr)
	})
}

// split partitions seg by the nearer of two random pivots, recursing into
// the first part and looping on the second, and joins every leaf of at
// most leaf rows. A split that leaves one side empty (duplicate rows, tied
// distances) cuts seg in half instead, so the recursion always shrinks.
func (s *rpScratch) split(base vecmath.Matrix, lists *nndLists, seg []int32, leaf int, rng *joinRand) {
	for len(seg) > leaf {
		m := len(seg)
		i, j := rng.intn(m), rng.intn(m-1)
		if j >= i {
			j++
		}
		da, db := s.da[:m], s.db[:m]
		vecmath.L2ToRows(base, base.Row(int(seg[i])), seg, da)
		vecmath.L2ToRows(base, base.Row(int(seg[j])), seg, db)
		lo, hi := 0, m
		for lo < hi {
			if da[lo] < db[lo] {
				lo++
				continue
			}
			hi--
			seg[lo], seg[hi] = seg[hi], seg[lo]
			da[lo], da[hi] = da[hi], da[lo]
			db[lo], db[hi] = db[hi], db[lo]
		}
		if lo == 0 || lo == m {
			lo = m / 2
		}
		s.split(base, lists, seg[:lo], leaf, rng)
		seg = seg[lo:]
	}
	for a := 0; a+1 < len(seg); a++ {
		rest := seg[a+1:]
		d := s.da[:len(rest)]
		vecmath.L2ToRows(base, base.Row(int(seg[a])), rest, d)
		for b, v := range rest {
			lists.insertPair(seg[a], v, d[b])
		}
	}
}

// buildRevCSR inverts fixed-stride forward sample lists into a CSR layout:
// off[i]..off[i+1] bounds node i's reverse ids in rev. All buffers are
// caller-owned and reused across iterations.
func buildRevCSR(fwd []int32, cnt []int32, stride int, off []int32, rev []int32) {
	n := len(cnt)
	for i := range off {
		off[i] = 0
	}
	for i := 0; i < n; i++ {
		for j := 0; j < int(cnt[i]); j++ {
			off[fwd[i*stride+j]+1]++
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	// Fill using off[i] as a cursor, then restore offsets by shifting: after
	// filling, off[i] holds the end of node i's segment, i.e. the start of
	// node i+1's — one memmove-style walk restores the start-offsets form.
	for i := 0; i < n; i++ {
		for j := 0; j < int(cnt[i]); j++ {
			t := fwd[i*stride+j]
			rev[off[t]] = int32(i)
			off[t]++
		}
	}
	for i := n; i > 0; i-- {
		off[i] = off[i-1]
	}
	off[0] = 0
}

// joinRand is a splitmix64 PRNG for reverse-list sampling: allocation-free
// and seeded per (build seed, iteration, node), so the stream a node
// consumes is independent of goroutine scheduling.
type joinRand uint64

func newJoinRand(seed int64, iter, node int) joinRand {
	return joinRand(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(iter)*0xbf58476d1ce4e5b9 ^ uint64(node)*0x94d049bb133111eb)
}

func (r *joinRand) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0,n). The modulo bias is immaterial for
// neighbor sampling (n is far below 2^32).
func (r *joinRand) intn(n int) int { return int(r.next() % uint64(n)) }

// reservoirSample appends up to max ids drawn without replacement from src
// (Algorithm R), reading src exactly once and writing only into dst — src
// is shared between workers and must not be mutated.
func reservoirSample(dst []int32, src []int32, max int, rng *joinRand) []int32 {
	if len(src) <= max {
		return append(dst, src...)
	}
	start := len(dst)
	dst = append(dst, src[:max]...)
	for i := max; i < len(src); i++ {
		if j := rng.intn(i + 1); j < max {
			dst[start+j] = src[i]
		}
	}
	return dst
}

// Accuracy measures the recall of an approximate kNN graph against the exact
// one: the average fraction of each node's true k nearest neighbors present
// in its adjacency list.
func Accuracy(approx, exact *graphutil.Graph) float64 {
	if approx.N() != exact.N() || approx.N() == 0 {
		return 0
	}
	var total float64
	for i := range exact.Adj {
		truth := make(map[int32]struct{}, len(exact.Adj[i]))
		for _, v := range exact.Adj[i] {
			truth[v] = struct{}{}
		}
		if len(truth) == 0 {
			continue
		}
		hit := 0
		for _, v := range approx.Adj[i] {
			if _, ok := truth[v]; ok {
				hit++
			}
		}
		total += float64(hit) / float64(len(truth))
	}
	return total / float64(exact.N())
}
