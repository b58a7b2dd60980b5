//go:build !amd64

package quant

// Non-amd64 architectures run the portable scalar kernel.

// l2Levels16AVX2 is never called when cpu.AVX2 is false; this stub keeps the
// dispatch in kernels.go architecture-independent.
func l2Levels16AVX2(levels *int16, code *uint8, n int) int32 {
	panic("quant: AVX2 kernel called on non-amd64 build")
}

// l2Levels4AVX2 is never called when cpu.AVX2 is false; same role for the
// benchmark-only L2Levels4 in levels4.go.
func l2Levels4AVX2(levels *int16, code *uint8, n int) int32 {
	panic("quant: AVX2 kernel called on non-amd64 build")
}

func l2CodeRowsAVX2(codes *uint8, dim int, levels *int16, ids *int32, n int, out *float32, mul float32, window int) {
	panic("quant: AVX2 kernel called on non-amd64 build")
}
