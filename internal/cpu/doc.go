// Package cpu is the one place this module asks the processor what it can
// do. The hand-written kernel sets — the float32 distance kernels in
// vecmath, the SQ8 code kernels in vecmath/quant and the filter compiler's
// Eq and Range passes in meta — dispatch on cpu.AVX2, so one probe and one
// kill-switch (NSG_NO_AVX2) govern all of them.
package cpu
