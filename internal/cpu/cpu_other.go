//go:build !amd64

package cpu

// AVX2 is a constant off other architectures, so the dispatch branches in
// vecmath and quant compile away and the portable kernels are the only code.
const AVX2 = false
