package vecmath

import (
	"fmt"

	"repro/internal/cpu"
)

// L2ToRows is the batched gather kernel the construction and search loops
// use: it writes the squared distance from query to base row ids[i] into
// out[i] for every i. With AVX2 the whole id list is one assembly call that
// scores four rows at a time and prefetches the rows ahead while it does (a
// gather's rows are scattered, so without it every row is a cache miss
// taken serially); otherwise it is a loop over l2Generic. Either way the
// results are bit-identical to calling L2 per row. out must be at least len(ids) long;
// a query of another dimension or an id outside [0, base.Rows) panics.
func L2ToRows(base Matrix, query []float32, ids []int32, out []float32) {
	if len(out) < len(ids) {
		panic("vecmath: L2ToRows output shorter than ids")
	}
	if len(ids) == 0 {
		return
	}
	// The assembly takes raw pointers, so nothing reaches it that a slice
	// expression would have refused: the rows must lie inside base.Data and
	// every id must name one of them.
	dim := base.Dim
	if len(query) != dim {
		panic(fmt.Sprintf("vecmath: dimension mismatch %d != %d", len(query), dim))
	}
	if dim <= 0 || uint(base.Rows) > uint(len(base.Data)/dim) {
		panic(fmt.Sprintf("vecmath: matrix %dx%d does not fit its %d values", base.Rows, dim, len(base.Data)))
	}
	for _, id := range ids {
		if uint(id) >= uint(base.Rows) {
			panic(fmt.Sprintf("vecmath: row id %d out of range [0,%d)", id, base.Rows))
		}
	}
	if cpu.AVX2 {
		l2RowsAVX2(&base.Data[0], dim, &query[0], &ids[0], len(ids), &out[0], prefetchBytes)
		return
	}
	for i, id := range ids {
		out[i] = l2Generic(query, base.Row(int(id)))
	}
}

// prefetchBytes bounds how far l2RowsAVX2 prefetches ahead of the row it is
// scoring, as bytes of rows in flight. A hop of Algorithm 1 stages 10-50
// ids and the exact scan of a selective filter passes hundreds; prefetching
// a whole list up front is as good as this window on the first and slower
// on the second, where rows fetched too early are evicted before they are
// scored. ARCHITECTURE.md has the sweep that chose the value.
const prefetchBytes = 8 << 10

// L2ToRows is the Counter-aware batched gather kernel: it computes the same
// distances as the package-level L2ToRows and records len(ids) distance
// evaluations in one counter update instead of one per row. A nil receiver
// is valid and counts nothing.
func (c *Counter) L2ToRows(base Matrix, query []float32, ids []int32, out []float32) {
	if c != nil {
		c.n += uint64(len(ids))
	}
	L2ToRows(base, query, ids, out)
}
