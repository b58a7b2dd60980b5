package quant

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/chunkio"
)

// Persistence for the trained grid and the code matrix. Storing both with
// the index lets a load skip retraining and re-encoding entirely: the scale
// is re-derived from the persisted bounds (deriveScale is the single
// definition), so a reloaded quantizer is bit-identical to the original.
//
// Readers consume exactly the bytes their writer produced — sections embed
// in larger index files, so nothing here wraps the stream in its own
// buffering.

const (
	quantizerMagic  = 0x53513851 // "SQ8Q"
	codesMagic      = 0x53513843 // "SQ8C"
	quantizer4Magic = 0x53513451 // "SQ4Q"
	codes4Magic     = 0x53513443 // "SQ4C"
)

// WriteQuantizer serializes the trained grid bounds.
func WriteQuantizer(w io.Writer, q *Quantizer) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], quantizerMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(q.Dim()))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("quant: write quantizer header: %w", err)
	}
	if err := writeFloats(w, q.Min); err != nil {
		return err
	}
	return writeFloats(w, q.Max)
}

// ReadQuantizer deserializes a grid written by WriteQuantizer and re-derives
// its shared step.
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

// WriteCodes serializes a code matrix; the payload is the raw byte slab, so
// encoding costs one pass over memory.
func WriteCodes(w io.Writer, c CodeMatrix) error {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], codesMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(c.Rows))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(c.Dim))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("quant: write codes header: %w", err)
	}
	if _, err := w.Write(c.Codes); err != nil {
		return fmt.Errorf("quant: write codes: %w", err)
	}
	return nil
}

// ReadCodesShape deserializes a code matrix written by WriteCodes,
// rejecting any shape other than wantRows×wantDim before allocating —
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

// WriteQuantizer4 serializes a trained int4 grid's bounds — the int4 twin
// of WriteQuantizer, under its own magic so the two families cannot alias.
func WriteQuantizer4(w io.Writer, q *Quantizer4) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], quantizer4Magic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(q.Dim()))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("quant: write quantizer header: %w", err)
	}
	if err := writeFloats(w, q.Min); err != nil {
		return err
	}
	return writeFloats(w, q.Max)
}

// ReadQuantizer4 deserializes a grid written by WriteQuantizer4 and
// re-derives its shared step, bit-identically to the trained original.
func ReadQuantizer4(r io.Reader) (Quantizer4, error) {
	var q Quantizer4
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return q, fmt.Errorf("quant: read quantizer header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != quantizer4Magic {
		return q, fmt.Errorf("quant: bad int4 quantizer magic")
	}
	dim := int(binary.LittleEndian.Uint32(hdr[4:]))
	if dim <= 0 || dim > MaxDim4 {
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

// WriteCodes4 serializes a packed code matrix; the payload is the raw
// nibble slab (Rows*Stride bytes), one pass over memory.
func WriteCodes4(w io.Writer, c Code4Matrix) error {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], codes4Magic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(c.Rows))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(c.Dim))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("quant: write codes header: %w", err)
	}
	if _, err := w.Write(c.Codes); err != nil {
		return fmt.Errorf("quant: write codes: %w", err)
	}
	return nil
}

// ReadCodes4Shape deserializes a packed code matrix written by WriteCodes4,
// rejecting any shape other than wantRows×wantDim before allocating — same
// contract as ReadCodesShape. Negative bounds accept any plausible value.
func ReadCodes4Shape(r io.Reader, wantRows, wantDim int) (Code4Matrix, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Code4Matrix{}, fmt.Errorf("quant: read codes header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != codes4Magic {
		return Code4Matrix{}, fmt.Errorf("quant: bad int4 codes magic")
	}
	rows := int(binary.LittleEndian.Uint32(hdr[4:]))
	dim := int(binary.LittleEndian.Uint32(hdr[8:]))
	if rows <= 0 || dim <= 0 || rows > 1<<30 || dim > MaxDim4 {
		return Code4Matrix{}, fmt.Errorf("quant: implausible code matrix shape %dx%d", rows, dim)
	}
	if (wantRows >= 0 && rows != wantRows) || (wantDim >= 0 && dim != wantDim) {
		return Code4Matrix{}, fmt.Errorf("quant: code matrix shape %dx%d, want %dx%d", rows, dim, wantRows, wantDim)
	}
	c := NewCode4Matrix(rows, dim)
	if _, err := io.ReadFull(r, c.Codes); err != nil {
		return Code4Matrix{}, fmt.Errorf("quant: truncated codes: %w", err)
	}
	return c, nil
}

func writeFloats(w io.Writer, vals []float32) error {
	if err := chunkio.WriteFloat32s(w, vals); err != nil {
		return fmt.Errorf("quant: write floats: %w", err)
	}
	return nil
}

func readFloats(r io.Reader, n int) ([]float32, error) {
	out := make([]float32, n)
	if err := chunkio.ReadFloat32s(r, out); err != nil {
		return nil, fmt.Errorf("quant: truncated floats: %w", err)
	}
	return out, nil
}
