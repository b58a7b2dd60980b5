//go:build amd64

package quant

// AVX2 kernels for the SQ8 and int4 code distances. The toolchain assembles
// the .s file directly, so this costs no dependency; kernels.go and
// kernels4.go dispatch to them on cpu.AVX2, the probe (and the NSG_NO_AVX2
// kill-switch) they share with vecmath's float32 kernels.

// l2Levels16AVX2 sums (levels[i]-code[i])² over i < n, n a multiple of 16.
// Implemented in kernels_amd64.s.
//
//go:noescape
func l2Levels16AVX2(levels *int16, code *uint8, n int) int32

// l2Levels4AVX2 sums (levels[i]-nibble(code,i))² over i < n, n a multiple
// of 32 dimensions (16 packed code bytes). Implemented in kernels_amd64.s.
//
//go:noescape
func l2Levels4AVX2(levels *int16, code *uint8, n int) int32

// l2CodeRowsAVX2 writes float32(L2Levels(levels, row ids[i]))*mul into
// out[i] for i < n, where row r is the dim code bytes at codes+r*dim, and
// keeps about window bytes of the rows further down ids prefetched while it
// scores the current one. It reads exactly the rows ids names: the caller
// must have checked every id against the matrix. Implemented in
// kernels_amd64.s.
//
//go:noescape
func l2CodeRowsAVX2(codes *uint8, dim int, levels *int16, ids *int32, n int, out *float32, mul float32, window int)

// l2Code4RowsAVX2 is the packed int4 twin of l2CodeRowsAVX2: row r is the
// stride bytes at codes+r*stride holding dim nibbles, and out[i] is
// float32(L2Levels4(levels, row ids[i]))*mul. Implemented in
// kernels_amd64.s.
//
//go:noescape
func l2Code4RowsAVX2(codes *uint8, stride int, levels *int16, ids *int32, n int, out *float32, mul float32, window int, dim int)
