//go:build !amd64

package vecmath

// Non-amd64 architectures run the portable scalar kernel; cpu.AVX2 is a
// constant false there, so these stubs only keep the dispatch in vecmath.go
// and batch.go architecture-independent.

func l2AVX2(a, b *float32, n int) float32 {
	panic("vecmath: AVX2 kernel called on non-amd64 build")
}

func l2RowsAVX2(data *float32, dim int, query *float32, ids *int32, n int, out *float32, window int) {
	panic("vecmath: AVX2 kernel called on non-amd64 build")
}
