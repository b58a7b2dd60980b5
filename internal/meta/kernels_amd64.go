//go:build amd64

package meta

// AVX2 leaf kernels for the bitmap compiler. predicate.go dispatches to them
// on cpu.AVX2, the probe (and the NSG_NO_AVX2 kill-switch) the distance
// kernels share; the scalar eqBitsGeneric and rangeBitsGeneric are the
// fallback, the tail and the reference they must match bit for bit.

// eqBitsAVX2 writes words whole 64-row result words to dst: bit j of
// dst[w] is set when vals[64w+j] == x. Implemented in kernels_amd64.s.
//
//go:noescape
func eqBitsAVX2(dst *uint64, vals *int32, x int32, words int)

// rangeBitsAVX2 writes words whole 64-row result words to dst: bit j of
// dst[w] is set when vals[64w+j]+bias <= limit as signed integers, which
// with bias = 2^63-lo and limit = (hi-lo)^2^63 is lo <= vals[64w+j] <= hi
// (see rangeBits). Implemented in kernels_amd64.s.
//
//go:noescape
func rangeBitsAVX2(dst *uint64, vals *int64, bias, limit int64, words int)
