package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/vecmath"
)

// The exact MRNG (the paper's Definition 5) as a test oracle: the quadratic
// graph NSG approximates, built by the naive procedure of Section 3.4 with
// the lune test written out from the definition rather than through
// SelectMRNG, so the two can be checked against each other.

// oraclePoints returns n uniform points in [0,1)^dim: with float
// coordinates, equal distances (the MRNG's tie cases) do not occur.
func oraclePoints(n, dim int, seed int64) vecmath.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := vecmath.NewMatrix(n, dim)
	for i := range m.Data {
		m.Data[i] = rng.Float32()
	}
	return m
}

// rankOthers lists every point but p by ascending distance to p, ties by id.
func rankOthers(base vecmath.Matrix, p int) []vecmath.Neighbor {
	out := make([]vecmath.Neighbor, 0, base.Rows-1)
	for q := 0; q < base.Rows; q++ {
		if q != p {
			out = append(out, vecmath.Neighbor{ID: int32(q), Dist: vecmath.L2(base.Row(p), base.Row(q))})
		}
	}
	slices.SortFunc(out, vecmath.CompareNeighbors)
	return out
}

// exactMRNG builds the MRNG of base: p keeps q unless some kept r lies
// strictly inside lune(p,q), i.e. δ(p,r) < δ(p,q) and δ(q,r) < δ(p,q).
func exactMRNG(base vecmath.Matrix) [][]int32 {
	adj := make([][]int32, base.Rows)
	for p := range adj {
		var kept []vecmath.Neighbor
		for _, q := range rankOthers(base, p) {
			inLune := false
			for _, r := range kept {
				if r.Dist < q.Dist && vecmath.L2(base.Row(int(q.ID)), base.Row(int(r.ID))) < q.Dist {
					inLune = true
					break
				}
			}
			if !inLune {
				kept = append(kept, q)
				adj[p] = append(adj[p], q.ID)
			}
		}
	}
	return adj
}

// greedyReaches walks from p toward q, always to the neighbour nearest q
// and never back: it succeeds iff every step strictly closes in on q until
// q itself is reached — a monotonic path found without backtracking.
func greedyReaches(adj [][]int32, base vecmath.Matrix, p, q int32) bool {
	target := base.Row(int(q))
	cur, curDist := p, vecmath.L2(base.Row(int(p)), target)
	for cur != q {
		best, bestDist := cur, curDist
		for _, w := range adj[cur] {
			if d := vecmath.L2(base.Row(int(w)), target); d < bestDist {
				best, bestDist = w, d
			}
		}
		if best == cur {
			return false // a local optimum: only backtracking could go on
		}
		cur, curDist = best, bestDist
	}
	return true
}

// hasMonotonicPath reports whether some path p = v0, ..., vk = q in adj has
// δ(vi, q) strictly decreasing: a depth-first search that only follows
// edges closing in on q, so each node is entered at most once.
func hasMonotonicPath(adj [][]int32, base vecmath.Matrix, p, q int32) bool {
	target := base.Row(int(q))
	seen := make([]bool, len(adj))
	seen[p] = true
	stack := []int32{p}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == q {
			return true
		}
		dv := vecmath.L2(base.Row(int(v)), target)
		for _, w := range adj[v] {
			if !seen[w] && vecmath.L2(base.Row(int(w)), target) < dv {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}

// TestExactMRNGIsMSNET is the paper's Theorem 3: the MRNG is a monotonic
// search network, so every ordered pair of nodes is joined by a monotonic
// path. Checked exhaustively on several point sets and dimensions.
func TestExactMRNGIsMSNET(t *testing.T) {
	for _, c := range []struct {
		n, dim int
		seed   int64
	}{
		{30, 2, 1}, {30, 2, 2}, {40, 4, 3}, {25, 8, 4}, {50, 3, 5},
	} {
		base := oraclePoints(c.n, c.dim, c.seed)
		adj := exactMRNG(base)
		for p := range adj {
			for q := range adj {
				if !hasMonotonicPath(adj, base, int32(p), int32(q)) {
					t.Fatalf("n=%d dim=%d seed=%d: no monotonic path %d -> %d on the exact MRNG", c.n, c.dim, c.seed, p, q)
				}
			}
		}
	}
}

// TestExactMRNGRowsMatchSelectMRNG: SelectMRNG over all other points,
// uncapped, is exactly the MRNG's row — the edge rule Algorithm 2, Insert
// and the rivals share is the paper's Definition 5.
func TestExactMRNGRowsMatchSelectMRNG(t *testing.T) {
	for _, c := range []struct{ n, dim int }{{400, 2}, {500, 8}} {
		base := oraclePoints(c.n, c.dim, int64(c.n+c.dim))
		for p, row := range exactMRNG(base) {
			got := SelectMRNG(base, base.Row(p), rankOthers(base, p), base.Rows)
			if !slices.Equal(got, row) {
				t.Fatalf("n=%d dim=%d node %d: SelectMRNG %v, exact MRNG row %v", c.n, c.dim, p, got, row)
			}
		}
	}
}

// TestExactMRNGGreedyNeedsNoBacktracking is the paper's Theorem 1 on the
// exact graph: the MRNG is a monotonic search network, so greedy search
// from any node reaches every target without backtracking.
func TestExactMRNGGreedyNeedsNoBacktracking(t *testing.T) {
	base := oraclePoints(300, 4, 21)
	adj := exactMRNG(base)
	for p := range adj {
		for q := range adj {
			if !greedyReaches(adj, base, int32(p), int32(q)) {
				t.Fatalf("greedy search stuck going %d -> %d on the exact MRNG", p, q)
			}
		}
	}
}

// selectMRNGRef is the MRNG rule in the forward per-pair form
// SelectMRNGInto batches: each candidate in order is kept unless some kept
// r has δ(q,r) < δ(v,q), scored one pair at a time, until m are kept.
func selectMRNGRef(base vecmath.Matrix, cands []vecmath.Neighbor, m int) []int32 {
	var kept []int32
	for _, q := range cands {
		if len(kept) >= m {
			break
		}
		occluded := false
		for _, r := range kept {
			if vecmath.L2(base.Row(int(q.ID)), base.Row(int(r))) < q.Dist {
				occluded = true
				break
			}
		}
		if !occluded {
			kept = append(kept, q.ID)
		}
	}
	return kept
}

// TestSelectMRNGMatchesReference: the batched rule keeps exactly the ids,
// in the order, the per-pair reference keeps, on random candidate lists
// over integer rows (distance ties everywhere) and real-valued ones, with p
// itself sometimes among the candidates at distance 0 and m at the edges.
// One context serves every trial, so stale scratch would show.
func TestSelectMRNGMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ctx := NewSearchContext()
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(120)
		dim := []int{1, 3, 8, 13, 37}[rng.Intn(5)]
		integer := trial%2 == 0
		base := vecmath.NewMatrix(n, dim)
		for i := range base.Data {
			if integer {
				base.Data[i] = float32(rng.Intn(4))
			} else {
				base.Data[i] = rng.Float32()
			}
		}
		p := rng.Intn(n)
		v := base.Row(p)
		var cands []vecmath.Neighbor
		for q := 0; q < n; q++ {
			if (q != p || rng.Intn(2) == 0) && rng.Intn(4) != 0 {
				cands = append(cands, vecmath.Neighbor{ID: int32(q), Dist: vecmath.L2(v, base.Row(q))})
			}
		}
		slices.SortFunc(cands, vecmath.CompareNeighbors)
		for _, m := range []int{0, 1, len(cands) - 1, len(cands), len(cands) + 3} {
			want := selectMRNGRef(base, cands, m)
			got := SelectMRNGInto(base, v, cands, m, ctx, []int32{-1})
			if got[0] != -1 || !slices.Equal(got[1:], want) {
				t.Fatalf("trial %d (n=%d dim=%d integer=%v p=%d) m=%d: got %v, want [-1] + %v",
					trial, n, dim, integer, p, m, got, want)
			}
		}
	}
}
