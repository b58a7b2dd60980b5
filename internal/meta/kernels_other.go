//go:build !amd64

package meta

// Non-amd64 architectures run the scalar loops; cpu.AVX2 is a constant
// false there, so these stubs only keep the dispatch in predicate.go
// architecture-independent.

func eqBitsAVX2(dst *uint64, vals *int32, x int32, words int) {
	panic("meta: AVX2 kernel called on non-amd64 build")
}

func rangeBitsAVX2(dst *uint64, vals *int64, bias, limit int64, words int) {
	panic("meta: AVX2 kernel called on non-amd64 build")
}
