// Package hnsw implements Hierarchical Navigable Small World graphs (Malkov
// & Yashunin), the strongest baseline in the paper's evaluation. The
// structure is a stack of NSW layers: every point lives in layer 0; a point
// appears in layer i with probability exp(-i/mL); search descends greedily
// through the upper layers and runs beam search at layer 0.
//
// Neighbor selection uses the "heuristic" (RNG-style occlusion) rule from
// the HNSW paper — the same geometric test NSG's MRNG rule uses, which is
// exactly why the paper compares against it. Table 2's HNSW0 rows report
// the bottom layer of this structure.
package hnsw

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/graphutil"
	"repro/internal/vecmath"
)

// Params configures construction.
type Params struct {
	M              int     // out-degree target for upper layers; layer 0 allows 2M
	EfConstruction int     // beam width during insertion
	LevelMult      float64 // mL; defaults to 1/ln(M)
	Seed           int64
}

// DefaultParams mirrors commonly used HNSW settings at test scale.
func DefaultParams() Params {
	return Params{M: 16, EfConstruction: 100, Seed: 1}
}

// Index is a built HNSW.
type Index struct {
	Base       vecmath.Matrix
	layers     []*graphutil.Graph // layers[0] is the bottom layer over all nodes
	levels     []int              // max layer of each node
	entry      int32
	maxLevel   int
	m          int
	efConstruc int
}

// Build inserts every base vector in order, one at a time, following the
// reference implementation's logic.
func Build(base vecmath.Matrix, p Params) (*Index, error) {
	n := base.Rows
	if n == 0 {
		return nil, fmt.Errorf("hnsw: empty base set")
	}
	if p.M < 2 {
		// At M = 1 the level multiplier 1/ln(M) is infinite, every drawn
		// level overflows, and the build would return a graph with no edges.
		return nil, fmt.Errorf("hnsw: M must be at least 2, got %d", p.M)
	}
	if p.EfConstruction <= 0 {
		p.EfConstruction = 100
	}
	if p.LevelMult <= 0 {
		p.LevelMult = 1 / math.Log(float64(p.M))
	}
	rng := rand.New(rand.NewSource(p.Seed))

	idx := &Index{
		Base:       base,
		levels:     make([]int, n),
		entry:      -1,
		maxLevel:   -1,
		m:          p.M,
		efConstruc: p.EfConstruction,
	}

	// Pre-draw levels so layer storage can be allocated up front.
	for i := 0; i < n; i++ {
		idx.levels[i] = int(-math.Log(rng.Float64()+1e-12) * p.LevelMult)
	}
	idx.layers = make([]*graphutil.Graph, slices.Max(idx.levels)+1)
	for l := range idx.layers {
		idx.layers[l] = graphutil.New(n)
	}

	for i := 0; i < n; i++ {
		idx.insert(int32(i))
	}
	return idx, nil
}

func (x *Index) insert(id int32) {
	level := x.levels[id]
	if x.entry == -1 {
		x.entry = id
		x.maxLevel = level
		return
	}
	q := x.Base.Row(int(id))

	ep := x.entry
	// Greedy descent through layers above the new node's level.
	for l := x.maxLevel; l > level; l-- {
		ep = x.greedyClosest(l, q, ep, nil)
	}
	// Beam search + heuristic selection at each layer from min(level,
	// maxLevel) down to 0.
	for l := min(level, x.maxLevel); l >= 0; l-- {
		cands := x.searchLayer(l, q, []int32{ep}, x.efConstruc, nil)
		maxDeg := x.m
		if l == 0 {
			maxDeg = 2 * x.m
		}
		selected := core.SelectMRNG(x.Base, q, cands, maxDeg)
		x.layers[l].Adj[id] = selected
		for _, nb := range selected {
			x.layers[l].AddEdge(nb, id)
			if len(x.layers[l].Adj[nb]) > maxDeg {
				x.shrink(l, nb, maxDeg)
			}
		}
		if len(cands) > 0 {
			ep = cands[0].ID
		}
	}
	if level > x.maxLevel {
		x.maxLevel = level
		x.entry = id
	}
}

// shrink re-applies the heuristic selection to an overfull neighbor list.
func (x *Index) shrink(layer int, node int32, maxDeg int) {
	v := x.Base.Row(int(node))
	adj := x.layers[layer].Adj[node]
	cands := make([]vecmath.Neighbor, 0, len(adj))
	for _, nb := range adj {
		cands = append(cands, vecmath.Neighbor{ID: nb, Dist: vecmath.L2(v, x.Base.Row(int(nb)))})
	}
	vecmath.SortNeighbors(cands)
	x.layers[layer].Adj[node] = core.SelectMRNG(x.Base, v, cands, maxDeg)
}

// greedyClosest walks layer l greedily from ep toward q and returns the
// local minimum. counter may be nil.
func (x *Index) greedyClosest(l int, q []float32, ep int32, counter *vecmath.Counter) int32 {
	cur := ep
	curDist := counter.L2(q, x.Base.Row(int(cur)))
	for {
		improved := false
		for _, nb := range x.layers[l].Adj[cur] {
			d := counter.L2(q, x.Base.Row(int(nb)))
			if d < curDist {
				cur, curDist = nb, d
				improved = true
			}
		}
		if !improved {
			return cur
		}
	}
}

// searchLayer is the ef-bounded beam search within one layer, returning up
// to ef candidates ascending by distance.
func (x *Index) searchLayer(l int, q []float32, starts []int32, ef int, counter *vecmath.Counter) []vecmath.Neighbor {
	return core.SearchOnGraph(x.layers[l].Adj, x.Base, q, starts, ef, ef, counter, nil).Neighbors
}

// Search answers a query: greedy descent through the upper layers, then an
// ef-wide beam search at layer 0, returning the k nearest. counter may be
// nil.
func (x *Index) Search(q []float32, k, ef int, counter *vecmath.Counter) []vecmath.Neighbor {
	if ef < k {
		ef = k
	}
	ep := x.entry
	for l := x.maxLevel; l > 0; l-- {
		ep = x.greedyClosest(l, q, ep, counter)
	}
	cands := x.searchLayer(0, q, []int32{ep}, ef, counter)
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands
}

// Layer exposes layer l; layer 0's statistics are what the paper reports as
// HNSW0 in Table 2.
func (x *Index) Layer(l int) *graphutil.Graph { return x.layers[l] }

// Entry returns the fixed entry point (top-layer node), used by the
// connectivity accounting of Table 4.
func (x *Index) Entry() int32 { return x.entry }

// Layers returns the number of layers.
func (x *Index) Layers() int { return len(x.layers) }

// IndexBytes accounts memory the way Table 2 does for HNSW: fixed-stride
// rows at each layer's max degree, summed over all layers.
func (x *Index) IndexBytes() int64 {
	var total int64
	for l, g := range x.layers {
		// Upper layers only store rows for nodes present at that level;
		// count nodes with levels[i] >= l.
		nodes := 0
		for _, lv := range x.levels {
			if lv >= l {
				nodes++
			}
		}
		total += int64(nodes) * int64(g.Degrees().Max) * 4
	}
	return total
}
