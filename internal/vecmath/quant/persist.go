package quant

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/chunkio"
)

// Readers of the trained grid and the code matrix in the stream records
// older builds wrote ("SQ8Q" bounds, then "SQ8C" codes); today's mapped
// record stores both as plain sections. Storing both with the index lets a
// load skip retraining and re-encoding entirely: the scale is re-derived
// from the persisted bounds (deriveScale is the single definition), so a
// reloaded quantizer is bit-identical to the original.
//
// Readers consume exactly the bytes of their section — sections embed in
// larger index files, so nothing here wraps the stream in its own
// buffering.

const (
	quantizerMagic = 0x53513851 // "SQ8Q"
	codesMagic     = 0x53513843 // "SQ8C"
)

// ReadQuantizer deserializes an "SQ8Q" grid record and re-derives its
// shared step.
func ReadQuantizer(r io.Reader) (Quantizer, error) {
	var q Quantizer
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return q, fmt.Errorf("quant: read quantizer header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != quantizerMagic {
		return q, fmt.Errorf("quant: bad quantizer magic")
	}
	dim := int(binary.LittleEndian.Uint32(hdr[4:]))
	if dim <= 0 || dim > MaxDim {
		return q, fmt.Errorf("quant: implausible quantizer dimension %d", dim)
	}
	var err error
	if q.Min, err = readFloats(r, dim); err != nil {
		return q, err
	}
	if q.Max, err = readFloats(r, dim); err != nil {
		return q, err
	}
	q.deriveScale()
	return q, nil
}

// ReadCodesShape deserializes an "SQ8C" code matrix record (a 12-byte
// header of magic, rows and dim, then the raw byte slab), rejecting any shape other than wantRows×wantDim before allocating —
// callers that know the expected shape from surrounding context must pass
// it so a corrupt header cannot turn into a giant allocation. Negative
// bounds accept any plausible value.
func ReadCodesShape(r io.Reader, wantRows, wantDim int) (CodeMatrix, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return CodeMatrix{}, fmt.Errorf("quant: read codes header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != codesMagic {
		return CodeMatrix{}, fmt.Errorf("quant: bad codes magic")
	}
	rows := int(binary.LittleEndian.Uint32(hdr[4:]))
	dim := int(binary.LittleEndian.Uint32(hdr[8:]))
	if rows <= 0 || dim <= 0 || rows > 1<<30 || dim > MaxDim {
		return CodeMatrix{}, fmt.Errorf("quant: implausible code matrix shape %dx%d", rows, dim)
	}
	if (wantRows >= 0 && rows != wantRows) || (wantDim >= 0 && dim != wantDim) {
		return CodeMatrix{}, fmt.Errorf("quant: code matrix shape %dx%d, want %dx%d", rows, dim, wantRows, wantDim)
	}
	c := NewCodeMatrix(rows, dim)
	if _, err := io.ReadFull(r, c.Codes); err != nil {
		return CodeMatrix{}, fmt.Errorf("quant: truncated codes: %w", err)
	}
	return c, nil
}

func readFloats(r io.Reader, n int) ([]float32, error) {
	out := make([]float32, n)
	if err := chunkio.ReadFloat32s(r, out); err != nil {
		return nil, fmt.Errorf("quant: truncated floats: %w", err)
	}
	return out, nil
}
