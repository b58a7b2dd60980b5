//go:build amd64

package cpu

import "os"

// AVX2 is probed once at init through CPUID/XGETBV: AVX2 in the CPU *and*
// YMM state enabled by the OS. The NSG_NO_AVX2 environment variable (any
// non-empty value) forces it off at startup — the hook CI's kernel-matrix
// lane uses to gate the portable paths on hardware where the vector paths
// would otherwise always win the dispatch.
var AVX2 = hasAVX2() && os.Getenv("NSG_NO_AVX2") == ""

// cpuid executes CPUID with the given leaf/subleaf. Implemented in
// cpu_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0. Implemented in cpu_amd64.s.
func xgetbv() (eax, edx uint32)

func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	if c&osxsaveBit == 0 || c&avxBit == 0 {
		return false
	}
	// The OS must have enabled XMM and YMM state saving.
	if eax, _ := xgetbv(); eax&0x6 != 0x6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return b&avx2Bit != 0
}
