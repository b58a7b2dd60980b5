package core

// SetQuantBoundOff turns the quantization error bound off (true) or back on
// for the external tests: with it off, every quantized search rescores its
// whole pool and every filtered scan scores every passing row in float32.
func SetQuantBoundOff(off bool) { quantBoundOff = off }
