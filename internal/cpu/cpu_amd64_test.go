//go:build amd64

package cpu

import (
	"os"
	"testing"
)

// TestNoAVX2EnvHonored asserts the CI kernel-matrix contract: when
// NSG_NO_AVX2 is set, every kernel that dispatches on AVX2 must have been
// sent to its scalar fallback at init. The CI lane that force-disables the
// vector paths runs the whole test suite with the variable set; this test
// is what proves the kill-switch actually took, rather than the lane
// silently re-testing the AVX2 paths.
func TestNoAVX2EnvHonored(t *testing.T) {
	if os.Getenv("NSG_NO_AVX2") == "" {
		t.Skip("NSG_NO_AVX2 not set; dispatch follows hardware")
	}
	if AVX2 {
		t.Fatal("NSG_NO_AVX2 is set but AVX2 kernels are still dispatched")
	}
}
