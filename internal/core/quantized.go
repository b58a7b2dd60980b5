package core

import (
	"fmt"

	"repro/internal/vecmath"
	"repro/internal/vecmath/quant"
)

// This file is the two-phase quantized serving path. Phase one runs
// Algorithm 1 over a code matrix: the greedy expansion gathers
// 1-byte-per-dimension SQ8 rows (4x fewer bytes than float) or packed
// half-byte int4 rows (8x fewer) — the factor that matters once the loop
// itself is allocation-free, because graph traversal at scale is
// memory-bandwidth bound (Section 6's commodity-hardware serving
// argument). Phase two reranks: the final candidate pool (up to l nodes)
// gets exact float32 distances in one batched gather and is re-sorted
// before the k results are emitted, so quantization error never reaches
// the caller's distances and only costs recall when a true neighbor fell
// out of the pool entirely — which the pool slack (l >= k) absorbs. The
// coarser int4 grid loses pool members a little earlier than SQ8, so it
// typically wants a slightly deeper L for the same recall; the halved
// bytes/hop is what pays for that depth and more.

// Quantized bundles a trained grid with the codes of the index's base
// vectors, tagged by the scheme in use: Mode selects which (Q, Codes) or
// (Q4, Codes4) pair is live — the other pair stays zero. Rows are in
// internal (post-relayout) id order, matching Base.
type Quantized struct {
	Mode   quant.Mode
	Q      quant.Quantizer
	Codes  quant.CodeMatrix
	Q4     quant.Quantizer4
	Codes4 quant.Code4Matrix
}

// EnableQuantization attaches an SQ8 code matrix to the index and switches
// every search path to the two-phase quantized search. A nil q trains the
// grid on the index's own base vectors; passing a quantizer trained
// elsewhere (e.g. once on the full dataset of a sharded index) shares its
// scales without retraining. Call after Relayout, if both are wanted, so
// codes are encoded directly in the serving order. Not safe for concurrent
// use with Search.
func (x *NSG) EnableQuantization(q *quant.Quantizer) error {
	if x.ro {
		return ErrReadOnly
	}
	// Validate here so the error-returning public builders never reach the
	// panics quant.Train reserves for violated internal contracts.
	if x.Base.Dim > quant.MaxDim {
		return fmt.Errorf("core: dimension %d exceeds the SQ8 int32-accumulation limit %d", x.Base.Dim, quant.MaxDim)
	}
	if x.Base.Rows == 0 {
		return fmt.Errorf("core: cannot quantize an empty index")
	}
	var qz quant.Quantizer
	if q == nil {
		qz = quant.Train(x.Base)
	} else {
		if q.Dim() != x.Base.Dim {
			return fmt.Errorf("core: quantizer dim %d != index dim %d", q.Dim(), x.Base.Dim)
		}
		qz = *q
	}
	x.Quant = &Quantized{Mode: quant.ModeSQ8, Q: qz, Codes: qz.Encode(x.Base)}
	return nil
}

// EnableQuantization4 is the int4 twin of EnableQuantization: it attaches a
// packed nibble matrix (two dimensions per byte) and switches every search
// path to the two-phase quantized search over it. Same sharing and
// ordering contract as the SQ8 variant.
func (x *NSG) EnableQuantization4(q *quant.Quantizer4) error {
	if x.ro {
		return ErrReadOnly
	}
	if x.Base.Dim > quant.MaxDim4 {
		return fmt.Errorf("core: dimension %d exceeds the int4 accumulation limit %d", x.Base.Dim, quant.MaxDim4)
	}
	if x.Base.Rows == 0 {
		return fmt.Errorf("core: cannot quantize an empty index")
	}
	var qz quant.Quantizer4
	if q == nil {
		qz = quant.Train4(x.Base)
	} else {
		if q.Dim() != x.Base.Dim {
			return fmt.Errorf("core: quantizer dim %d != index dim %d", q.Dim(), x.Base.Dim)
		}
		qz = *q
	}
	x.Quant = &Quantized{Mode: quant.ModeInt4, Q4: qz, Codes4: qz.Encode(x.Base)}
	return nil
}

// IsQuantized reports whether the index serves through a quantized path.
func (x *NSG) IsQuantized() bool { return x.Quant != nil }

// QuantMode returns the quantization scheme the index serves through
// (quant.ModeNone when unquantized).
func (x *NSG) QuantMode() quant.Mode {
	if x.Quant == nil {
		return quant.ModeNone
	}
	return x.Quant.Mode
}

// Relaid reports whether a Relayout permuted the index (i.e. internal and
// public ids differ).
func (x *NSG) Relaid() bool { return x.PubIDs != nil }

// InternalID maps a public id to the internal (post-relayout) node id.
func (x *NSG) InternalID(id int32) int32 {
	if x.toInternal == nil {
		return id
	}
	return x.toInternal[id]
}

// PublicID maps an internal node id to the caller-visible id.
func (x *NSG) PublicID(id int32) int32 {
	if x.PubIDs == nil {
		return id
	}
	return x.PubIDs[id]
}

// VectorByID returns the stored vector with the given public id.
func (x *NSG) VectorByID(id int32) []float32 {
	return x.Base.Row(int(x.InternalID(id)))
}

// PublicBase returns the base vectors in public id order: the matrix itself
// when no relayout happened, otherwise a de-permuted copy. Persistence
// containers store this order so the file's row r is always public id r.
func (x *NSG) PublicBase() vecmath.Matrix {
	if x.PubIDs == nil {
		return x.Base
	}
	out := vecmath.NewMatrix(x.Base.Rows, x.Base.Dim)
	for i := 0; i < x.Base.Rows; i++ {
		copy(out.Row(int(x.PubIDs[i])), x.Base.Row(i))
	}
	return out
}
