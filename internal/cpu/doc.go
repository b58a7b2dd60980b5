// Package cpu is the one place this module asks the processor what it can
// do. Both hand-written kernel sets — the float32 distance kernels in
// vecmath and the SQ8/int4 code kernels in vecmath/quant — dispatch on
// cpu.AVX2, so one probe and one kill-switch (NSG_NO_AVX2) govern all of
// them.
package cpu
