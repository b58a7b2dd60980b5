package graphutil

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// FlatGraph is the fixed-stride adjacency layout the paper's implementations
// use at search time: every node owns Stride int32 slots in one contiguous
// array, the first holding its out-degree and the rest its neighbor ids.
// Table 2's memory accounting ("each node is allocated the same memory based
// on the maximum out-degree of the graphs to enable the continuous memory
// access") describes exactly this structure; it removes a pointer
// indirection per node during greedy traversal and keeps neighbor lists on
// one cache line each for typical degrees.
//
// A graph that is edited in place (AppendNode, SetNeighbors, AddEdge)
// widens its stride on demand, when a row must hold more than Stride-1 ids,
// and narrows it back on Fit once shortened rows have left the last slot
// empty everywhere.
type FlatGraph struct {
	Data   []int32 // length N*Stride; node i occupies Data[i*Stride:(i+1)*Stride]
	Stride int     // 1 + max out-degree
	Nodes  int
	// loose is set when a row that filled the stride was rewritten shorter:
	// Stride-1 may then exceed the maximum degree until Fit measures it.
	loose bool
}

// Flatten converts an adjacency-list graph to the fixed-stride layout.
func Flatten(g *Graph) *FlatGraph {
	stride := g.Degrees().Max + 1
	f := &FlatGraph{Data: make([]int32, g.N()*stride), Stride: stride, Nodes: g.N()}
	for i, adj := range g.Adj {
		f.SetNeighbors(int32(i), adj)
	}
	return f
}

// Restride returns a copy of f in a fresh array at the given stride, which
// must exceed every degree, with room for as many rows as f has.
func (f *FlatGraph) Restride(stride int) *FlatGraph {
	g := &FlatGraph{Data: make([]int32, f.Nodes*stride, cap(f.Data)/f.Stride*stride), Stride: stride, Nodes: f.Nodes}
	for i := 0; i < f.Nodes; i++ {
		row := f.Data[i*f.Stride:]
		copy(g.Data[i*stride:], row[:1+row[0]])
	}
	return g
}

// Fit brings Stride-1 back to the maximum degree, copying the graph into a
// narrower array when shortened rows left the last slot of every row unused.
func (f *FlatGraph) Fit() {
	if f.loose {
		f.loose = false
		if d := f.Degrees().Max; d+1 < f.Stride {
			*f = *f.Restride(d + 1)
		}
	}
}

// AppendNode adds a node with no out-edges.
func (f *FlatGraph) AppendNode() {
	f.Data = append(f.Data, make([]int32, f.Stride)...)
	f.Nodes++
}

// SetNeighbors replaces node i's out-edges with ids, widening the stride
// (a copy of the graph) first when they do not fit. Slots past the degree
// are zero, as Flatten leaves them, so the rows serialize the same.
func (f *FlatGraph) SetNeighbors(i int32, ids []int32) {
	if len(ids) >= f.Stride {
		*f = *f.Restride(len(ids) + 1)
	}
	row := f.Data[int(i)*f.Stride:]
	old := int(row[0])
	if old == f.Stride-1 && len(ids) < old {
		f.loose = true
	}
	row[0] = int32(copy(row[1:], ids))
	clear(row[1+len(ids) : 1+max(old, len(ids))]) // unused slots stay zero
}

// AddEdge appends the edge i→to without checking duplicates, widening the
// stride first when node i's row is full.
func (f *FlatGraph) AddEdge(i, to int32) {
	d := f.Degree(i)
	if d+1 >= f.Stride {
		*f = *f.Restride(d + 2)
	}
	row := f.Data[int(i)*f.Stride:]
	row[1+d] = to
	row[0]++
}

// Neighbors returns node i's adjacency as a subslice of the flat array.
func (f *FlatGraph) Neighbors(i int32) []int32 {
	row := f.Data[int(i)*f.Stride:]
	deg := int(row[0])
	return row[1 : 1+deg]
}

// Degree returns node i's out-degree.
func (f *FlatGraph) Degree(i int32) int {
	return int(f.Data[int(i)*f.Stride])
}

// Degrees computes out-degree statistics, as Graph.Degrees does.
func (f *FlatGraph) Degrees() DegreeStats {
	return degreeStats(f.Nodes, func(i int) int { return f.Degree(int32(i)) })
}

// ToGraph converts back to the adjacency-list representation.
func (f *FlatGraph) ToGraph() *Graph {
	g := New(f.Nodes)
	for i := 0; i < f.Nodes; i++ {
		nb := f.Neighbors(int32(i))
		g.Adj[i] = append([]int32{}, nb...)
	}
	return g
}

// ReachableFrom counts nodes reachable from root (root included) by BFS
// over the flat layout — the adjacency-list-free twin of
// Graph.ReachableFrom.
func (f *FlatGraph) ReachableFrom(root int32) int {
	if f.Nodes == 0 || root < 0 || int(root) >= f.Nodes {
		return 0
	}
	seen := make([]bool, f.Nodes)
	queue := make([]int32, 0, f.Nodes)
	seen[root] = true
	queue = append(queue, root)
	for head := 0; head < len(queue); head++ {
		for _, nb := range f.Neighbors(queue[head]) {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return len(queue)
}

// Validate checks structural sanity: degrees within stride, ids in range.
func (f *FlatGraph) Validate() error {
	if f.Stride <= 0 || len(f.Data) != f.Nodes*f.Stride {
		return fmt.Errorf("graphutil: flat graph shape invalid: %d nodes, stride %d, %d slots", f.Nodes, f.Stride, len(f.Data))
	}
	for i := 0; i < f.Nodes; i++ {
		deg := f.Data[i*f.Stride]
		if deg < 0 || int(deg) >= f.Stride {
			return fmt.Errorf("graphutil: node %d degree %d exceeds stride %d", i, deg, f.Stride)
		}
		for _, v := range f.Neighbors(int32(i)) {
			if v < 0 || int(v) >= f.Nodes {
				return fmt.Errorf("graphutil: node %d has out-of-range edge %d", i, v)
			}
		}
	}
	return nil
}

// WriteTo serializes the graph in the NSG1 stream layout ReadFromN reads:
// magic, node count, then each node's degree and neighbor ids — the live
// prefix of its row — all little-endian uint32.
func (f *FlatGraph) WriteTo(w io.Writer) (int64, error) {
	le := binary.LittleEndian
	bw := bufio.NewWriter(w)
	buf := le.AppendUint32(le.AppendUint32(nil, graphMagic), uint32(f.Nodes))
	written := int64(len(buf))
	bw.Write(buf) // a failed write sticks in bw, and Flush reports it
	for i := 0; i < f.Nodes; i++ {
		row := f.Data[i*f.Stride:]
		buf = buf[:0]
		for _, v := range row[:1+row[0]] {
			buf = le.AppendUint32(buf, uint32(v))
		}
		bw.Write(buf)
		written += int64(len(buf))
	}
	if err := bw.Flush(); err != nil {
		return 0, fmt.Errorf("graphutil: write graph: %w", err)
	}
	return written, nil
}
