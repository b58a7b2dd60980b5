//go:build amd64

package vecmath

// l2AVX2 returns the 8-lane blocked part of L2 over a[:n], b[:n], n a
// positive multiple of 8: lane j accumulates (a[i+j]-b[i+j])² for i = 0, 8,
// 16, ..., and the lanes are summed left to right. Implemented in
// kernels_amd64.s.
//
//go:noescape
func l2AVX2(a, b *float32, n int) float32

// l2RowsAVX2 writes L2(query, row ids[i]) into out[i] for i < n, where row r
// is the dim floats at data+r*dim, scoring four rows at a time and keeping
// about window bytes of the rows further down ids prefetched while it does. It reads
// exactly the rows ids names: the caller must have checked every id against
// the matrix. Implemented in kernels_amd64.s.
//
//go:noescape
func l2RowsAVX2(data *float32, dim int, query *float32, ids *int32, n int, out *float32, window int)
