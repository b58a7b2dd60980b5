package graphutil

// Adjacency is a directed graph's out-lists, the one view of Graph and
// CSR that reachability needs.
type Adjacency interface {
	N() int
	Neighbors(i int32) []int32
}

// reachableFrom counts the nodes reachable from root (root included).
func reachableFrom(g Adjacency, root int32) int {
	var r Reacher
	r.Reset(g.N())
	return r.Mark(g, root)
}

// Reacher computes reachability over a mutating graph with reusable
// buffers: the visited marks and DFS stack are allocated once and shared
// across passes, so loops that interleave traversal and edge insertion
// (NSG's connectivity repair) do not reallocate per pass. Incremental
// marking is supported: after the initial Mark from the root, marking a
// newly attached node extends the reachable set without restarting the
// traversal.
//
// A Reacher is owned by one goroutine; it has no internal locking.
type Reacher struct {
	visited []bool
	stack   []int32
}

// Reset prepares the Reacher for a graph of n nodes, clearing all marks.
func (r *Reacher) Reset(n int) {
	if cap(r.visited) < n {
		r.visited = make([]bool, n)
	} else {
		r.visited = r.visited[:n]
		for i := range r.visited {
			r.visited[i] = false
		}
	}
}

// Mark DFS-marks every node reachable from root through g, skipping nodes
// already marked, and returns the number of newly marked nodes. Calling it
// again after adding an edge anchor→u with Mark(g, u) extends the reachable
// set by exactly u's newly reachable out-component.
func (r *Reacher) Mark(g Adjacency, root int32) int {
	if r.visited[root] {
		return 0
	}
	r.visited[root] = true
	r.stack = append(r.stack[:0], root)
	count := 0
	for len(r.stack) > 0 {
		v := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		count++
		for _, w := range g.Neighbors(v) {
			if !r.visited[w] {
				r.visited[w] = true
				r.stack = append(r.stack, w)
			}
		}
	}
	return count
}

// Visited reports whether id has been marked since the last Reset.
func (r *Reacher) Visited(id int32) bool { return r.visited[id] }

// AppendUnreached appends every unmarked node id to out in ascending order
// and returns the extended slice (pass out[:0] to reuse a buffer).
func (r *Reacher) AppendUnreached(out []int32) []int32 {
	for i, v := range r.visited {
		if !v {
			out = append(out, int32(i))
		}
	}
	return out
}
