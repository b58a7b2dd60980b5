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
