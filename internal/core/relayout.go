package core

// permuteRows rearranges fixed-stride rows in place so that row i ends up
// holding what was row p[i] — a gather by the permutation p, executed by
// cycle following with one row-sized temporary. Used wherever a relayout
// permutation meets a matrix (float vectors, SQ8 codes, load-time restore),
// so none of those sites transiently doubles the matrix's memory.
func permuteRows[T any](data []T, dim int, p []int32) {
	n := len(p)
	tmp := make([]T, dim)
	done := make([]bool, n)
	row := func(i int32) []T { return data[int(i)*dim : (int(i)+1)*dim] }
	for start := int32(0); int(start) < n; start++ {
		if done[start] || p[start] == start {
			done[start] = true
			continue
		}
		copy(tmp, row(start))
		j := start
		for p[j] != start {
			copy(row(j), row(p[j]))
			done[j] = true
			j = p[j]
		}
		copy(row(j), tmp)
		done[j] = true
	}
}

// Relayout renumbers the index's nodes into BFS order from the navigating
// node and permutes every per-node array (adjacency lists, float vectors,
// SQ8 codes) to match, so the neighborhoods a greedy search expands early
// sit on adjacent cache lines — nodes reached within few hops of the entry
// point land near the front of the base and code matrices, and each node's
// out-neighbors (visited together) were enqueued together. Unreached nodes
// (none, after Algorithm 2's connectivity repair) keep their relative order
// at the tail.
//
// Caller-visible ids do not change: the permutation is recorded in an
// id-remap table and every emitted result is translated back, so Relayout
// is invisible except through memory behavior. Repeated calls compose.
// Not safe for concurrent use with Search.
func (x *NSG) Relayout() {
	if x.ro {
		// The public mutators catch ErrReadOnly before reaching here; an
		// internal caller relaying out a mapped index is a contract bug.
		panic("core: Relayout on a mapped read-only index")
	}
	n := x.Graph.N()
	if n == 0 {
		return
	}
	// BFS order from the navigating node; adjacency lists are in ascending
	// distance order (the MRNG selection emits them sorted), so a node's
	// closest neighbors are also its closest in the new layout.
	order := make([]int32, 0, n)
	seen := make([]bool, n)
	order = append(order, x.Navigating)
	seen[x.Navigating] = true
	for head := 0; head < len(order); head++ {
		for _, nb := range x.Graph.Adj[order[head]] {
			if !seen[nb] {
				seen[nb] = true
				order = append(order, nb)
			}
		}
	}
	for i := int32(0); int(i) < n; i++ {
		if !seen[i] {
			order = append(order, i)
		}
	}

	toNew := make([]int32, n) // old internal id -> new internal id
	for newID, old := range order {
		toNew[old] = int32(newID)
	}

	// Permute the float vectors, and the codes when quantization was
	// enabled first — in place, so the relayout never holds two copies of
	// the vectors.
	permuteRows(x.Base.Data, x.Base.Dim, order)
	if x.Quant != nil {
		permuteRows(x.Quant.Codes.Codes, x.Quant.Codes.Dim, order)
	}

	// Relabel and reorder the adjacency lists, reusing the per-node slices.
	newAdj := make([][]int32, n)
	for newID, old := range order {
		adj := x.Graph.Adj[old]
		for j, nb := range adj {
			adj[j] = toNew[nb]
		}
		newAdj[newID] = adj
	}
	x.Graph.Adj = newAdj

	// Compose the public mapping: new internal -> (old internal ->) public.
	newPub := make([]int32, n)
	for newID, old := range order {
		if x.PubIDs != nil {
			newPub[newID] = x.PubIDs[old]
		} else {
			newPub[newID] = old
		}
	}
	x.PubIDs = newPub
	inv := make([]int32, n)
	for internal, pub := range newPub {
		inv[pub] = int32(internal)
	}
	x.toInternal = inv

	x.Navigating = toNew[x.Navigating]
	x.invalidateDerived()
	x.FlatView() // refreeze the serving layout in the new order
}
