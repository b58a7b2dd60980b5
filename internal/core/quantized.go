package core

import (
	"fmt"
	"math"

	"repro/internal/vecmath"
	"repro/internal/vecmath/quant"
)

// This file is the two-phase quantized serving path. Phase one runs
// Algorithm 1 over a code matrix: the greedy expansion gathers
// 1-byte-per-dimension SQ8 rows (4x fewer bytes than float) — the factor
// that matters once the loop itself is allocation-free, because graph traversal at scale is
// memory-bandwidth bound (Section 6's commodity-hardware serving
// argument). Phase two reranks: every candidate of the final pool (up to l
// nodes) that the error bound below cannot rule out of the top k gets its
// exact float32 distance in one batched gather, and they are re-sorted
// before the k results are emitted, so quantization error never reaches
// the caller's distances and only costs recall when a true neighbor fell
// out of the pool entirely — which the pool slack (l >= k) absorbs.

// Quantized bundles a trained SQ8 grid with the codes of the index's base
// vectors. Rows are in internal (post-relayout) id order, matching Base.
type Quantized struct {
	Q     quant.Quantizer
	Codes quant.CodeMatrix

	// rho bounds ρ, the largest ‖x − x̂‖ over the rows the code matrix
	// holds (x̂ a row's grid reconstruction), from above; see codeBound. It
	// is measured wherever the rows pass through memory anyway — encode,
	// Load, a verified OpenMapped — and raised by every appended row.
	// hasRho is false where ρ is unknown (an OpenMapped with NoVerify, a
	// non-finite row): the rerank and the filtered scan then read every
	// float row.
	rho    float64
	hasRho bool
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
	x.Quant = &Quantized{Q: qz, Codes: qz.Encode(x.Base)}
	x.Quant.measureRho(x.Base)
	return nil
}

// IsQuantized reports whether the index serves through a quantized path.
func (x *NSG) IsQuantized() bool { return x.Quant != nil }

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

// The error bound. Let x̂ be a row's grid reconstruction (x̂_d = Min_d +
// s·code_d, s the grid step) and q̂ the query's (its prepared levels in
// place of the codes). The code distance is exactly s²·Σ(level − code)² =
// ‖q̂ − x̂‖², up to the float32 roundings of its conversion and multiply, so
// by the triangle inequality every row satisfies
//
//	|‖q − x‖ − √dc| ≤ ‖q − q̂‖ + ‖x − x̂‖ ≤ ε = ‖q − q̂‖ + ρ.
//
// Take the k rows of smallest code distance, the k-th at dc_k: each lies at
// most √dc_k + ε from q, so the k-th smallest exact distance does too, and a
// row that can still make the top k has √dc ≤ √dc_k + 2ε. codeBound turns
// that into the threshold the rerank and the filtered scan test code
// distances against; ARCHITECTURE.md ("The quantization error bound") has the
// derivation of its slack.

// quantBoundOff, set only by tests, turns the bound off: every quantized
// search then rescores its whole pool and every filtered scan scores every
// passing row in float32 — the answers the bound must reproduce exactly.
var quantBoundOff bool

// gridDist bounds ‖v − (min + scale·levels)‖ from above. The differences
// are taken in float64, where each carries up to 2^-52 of rounding relative
// to its operands — not to itself, as it may cancel — so by the triangle
// inequality the computed norm is padded by 2^-52 times the norm of the
// reconstruction, and both by what the sums' own roundings can hide. Two
// accumulator pairs keep the loop off a single add's latency.
func gridDist(v, min []float32, scale float64, levels []int16) float64 {
	var e0, e1, a0, a1 float64
	d := 0
	for ; d+1 < len(v); d += 2 {
		a := float64(min[d]) + scale*float64(levels[d])
		b := float64(min[d+1]) + scale*float64(levels[d+1])
		e, f := float64(v[d])-a, float64(v[d+1])-b
		e0, e1 = e0+e*e, e1+f*f
		a0, a1 = a0+a*a, a1+b*b
	}
	if d < len(v) {
		a := float64(min[d]) + scale*float64(levels[d])
		e := float64(v[d]) - a
		e0, a0 = e0+e*e, a0+a*a
	}
	return (math.Sqrt(e0+e1)*(1+0x1p-52) + math.Sqrt(a0+a1)*0x1p-52) * (1 + 0x1p-38)
}

// grid returns the trained offsets and step.
func (qz *Quantized) grid() (min []float32, scale float64) {
	return qz.Q.Min, float64(qz.Q.Scale())
}

// rowLevels appends row i's codes to dst as levels.
func (qz *Quantized) rowLevels(dst []int16, i int) []int16 {
	for _, c := range qz.Codes.Row(i) {
		dst = append(dst, int16(c))
	}
	return dst
}

// measureRho sets ρ from every row of base, which holds the float rows of
// the code matrix in the same order.
func (qz *Quantized) measureRho(base vecmath.Matrix) {
	qz.rho, qz.hasRho = 0, true
	var buf []int16
	for i := 0; i < base.Rows; i++ {
		buf = qz.raiseRho(buf[:0], base.Row(i), i)
	}
}

// raiseRho folds code row i, the encoding of x, into ρ and returns buf (the
// row's levels) for reuse. A non-finite residual makes ρ unknown.
func (qz *Quantized) raiseRho(buf []int16, x []float32, i int) []int16 {
	if !qz.hasRho {
		return buf
	}
	buf = qz.rowLevels(buf, i)
	min, scale := qz.grid()
	r := gridDist(x, min, scale, buf)
	switch {
	case !(r < math.Inf(1)): // NaN or +Inf
		qz.hasRho = false
	case r > qz.rho:
		qz.rho = r
	}
	return buf
}

// codeBound is one query's error bound: eps is ε = ‖q − q̂‖ + ρ, padded for
// rounding, and slack the relative allowance for the float32 roundings of
// both distances.
type codeBound struct {
	eps, slack float64
}

// bound returns the query's codeBound, or false when ρ is unknown, the
// tests turned the bound off, or the grid step is so small that code
// distances could underflow (their rounding is then not relative).
func (qz *Quantized) bound(query []float32, levels []int16) (codeBound, bool) {
	min, scale := qz.grid()
	if quantBoundOff || !qz.hasRho || scale*scale < 0x1p-100 {
		return codeBound{}, false
	}
	const u = 0x1p-24 // float32 unit roundoff
	// The exact distance is a float32 sum of len(query) squared
	// differences: each term carries up to 3u of rounding, the summation
	// (any order) up to (len-1)u more, and 1% covers the second-order
	// terms. The code distance carries 3u: the int32 sum's conversion, the
	// squared step and their product.
	g := 1.01 * float64(len(query)+3) * u
	f := (1 + 3*u) * (1 + g) / ((1 - 3*u) * (1 - g))
	eps := (gridDist(query, min, scale, levels) + qz.rho) * (1 + 0x1p-40)
	// 2^-60 absorbs the absolute (underflow) error a float32 distance may
	// carry on top of its relative one.
	return codeBound{eps: eps + 0x1p-60, slack: f*(1+0x1p-40) - 1}, true
}

// threshold returns the largest code distance a row can have and still
// belong to the top k, given dck, the k-th smallest code distance of the
// rows the bound covers. It is +Inf where the bound cannot be trusted in
// float32: distances so large that an exact one could overflow.
func (b codeBound) threshold(dck float32) float64 {
	r := math.Sqrt(float64(dck)) + 2*b.eps
	t := r * r * (1 + b.slack)
	if !(t < 1e37) {
		return math.Inf(1)
	}
	return t
}
