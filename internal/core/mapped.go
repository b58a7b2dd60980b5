package core

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/chunkio"
	"repro/internal/graphutil"
	"repro/internal/meta"
	"repro/internal/mstore"
	"repro/internal/vecmath"
	"repro/internal/vecmath/quant"
)

// This file is the disk-resident serving layout: the NSGM record stores
// the index's serving slabs — fixed-stride adjacency, vectors in internal
// (post-relayout) order, the id-remap table, SQ8 bounds and codes — at
// 64-byte-aligned offsets in exactly the in-memory representation the
// search engine consumes, so OpenMapped can point FlatGraph/Matrix/
// CodeMatrix headers straight into a memory-mapped file. Restart cost is
// O(file open) instead of O(decode), capacity is bounded by the page
// cache rather than the heap, and the BFS Relayout's locality transfers
// directly to page locality.
//
// A mapped index is read-only: mutators return ErrReadOnly (or panic on
// the internal no-error paths) and PromoteToHeap materializes a mutable
// heap copy explicitly. Mapped memory is PROT_READ, so the contract is
// also enforced by hardware.

// ErrReadOnly is returned by mutating operations on a mapped (read-only)
// index. Call PromoteToHeap to obtain a mutable heap-resident index.
var ErrReadOnly = errors.New("core: index is mapped read-only; promote to heap to mutate")

const (
	// nsgMappedMagic marks the aligned mapped record. Like NSGQ vs NSGF,
	// a distinct magic means stream-format readers reject mapped files at
	// the first check instead of misparsing them.
	nsgMappedMagic   = 0x4e53474d // "NSGM"
	nsgMappedVersion = 1

	mappedAlign      = 64
	mappedHeaderSize = 192 // 3 * mappedAlign

	// Section table layout inside the header: six fixed slots of
	// {offset u64, length u64, crc32 u32, reserved u32}. The sixth (meta)
	// slot occupies bytes the v1 format reserved as zero, so v1 files —
	// whose entry reads as all-zero — parse as "no metadata" without a
	// version bump; files that do carry it also set nsgFlagMeta, which
	// pre-metadata readers reject as an unknown flag.
	mappedSections    = 6
	sectionEntrySize  = 24
	sectionTableStart = 40
	headerCRCOffset   = mappedHeaderSize - 4
)

// Section names one region of a mapped NSG record, for typed corruption
// errors and the validation report.
type Section int

const (
	SectionHeader Section = iota
	SectionAdjacency
	SectionVectors
	SectionRemap
	SectionQuantBounds
	SectionCodes
	SectionMeta
)

var sectionNames = [...]string{"header", "adjacency", "vectors", "remap", "quant-bounds", "codes", "meta"}

func (s Section) String() string {
	if s < 0 || int(s) >= len(sectionNames) {
		return fmt.Sprintf("section(%d)", int(s))
	}
	return sectionNames[s]
}

// FormatError reports a corrupt, truncated or structurally invalid mapped
// index file, naming the section where validation failed. Match with
// errors.As to inspect the section programmatically.
type FormatError struct {
	Section Section
	Reason  string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("core: mapped index: %s section: %s", e.Section, e.Reason)
}

func corruptf(s Section, format string, args ...any) error {
	return &FormatError{Section: s, Reason: fmt.Sprintf(format, args...)}
}

// MapOptions configures OpenMapped.
type MapOptions struct {
	// NoVerify skips the deep content validation pass (per-section CRC32,
	// adjacency structure scan) so opening costs O(1) page faults instead
	// of one read of the file — the trusted-storage fast-restart path.
	// Header geometry, the header checksum and the remap permutation are
	// always checked; but with NoVerify a file whose adjacency slab was
	// corrupted in place can make searches panic or return garbage.
	NoVerify bool
}

// align64 rounds n up to the next multiple of the slab alignment.
func align64(n int64) int64 {
	return (n + mappedAlign - 1) &^ (mappedAlign - 1)
}

// mappedSection describes one slab while writing.
type mappedSection struct {
	off    int64
	size   int64
	crc    uint32
	encode func(io.Writer) error
}

// mappedLayout computes the six section slots for this index. All slab
// sizes are implied by the header geometry except the metadata blob, whose
// table length is authoritative (the blob self-describes and carries its
// own checksum).
func (x *NSG) mappedLayout() ([mappedSections]mappedSection, int64) {
	x.flat.Fit()
	f := x.flat
	rows := int64(x.Base.Rows)
	dim := int64(x.Base.Dim)
	var secs [mappedSections]mappedSection
	secs[0].size = rows * int64(f.Stride) * 4
	secs[0].encode = func(w io.Writer) error { return chunkio.WriteInt32s(w, f.Data) }
	secs[1].size = rows * dim * 4
	secs[1].encode = func(w io.Writer) error { return chunkio.WriteFloat32s(w, x.Base.Data) }
	secs[2].size = rows * 4
	secs[2].encode = func(w io.Writer) error { return chunkio.WriteInt32s(w, x.PubIDs) }
	if x.Quant != nil {
		// The bounds section is two dim-sized float vectors; the code slab
		// is rows*dim bytes.
		secs[3].size = 2 * dim * 4
		secs[3].encode = func(w io.Writer) error {
			if err := chunkio.WriteFloat32s(w, x.Quant.Q.Min); err != nil {
				return err
			}
			return chunkio.WriteFloat32s(w, x.Quant.Q.Max)
		}
		secs[4].size = rows * dim
		secs[4].encode = func(w io.Writer) error {
			_, err := w.Write(x.Quant.Codes.Codes)
			return err
		}
	}
	if x.Meta != nil {
		// Materialize the blob once so the CRC pass and the write pass see
		// identical bytes even if the store is replaced concurrently.
		blob := x.Meta.AppendEncode(nil)
		secs[5].size = int64(len(blob))
		secs[5].encode = func(w io.Writer) error {
			_, err := w.Write(blob)
			return err
		}
	}
	off := int64(mappedHeaderSize)
	for i := range secs {
		if secs[i].encode == nil {
			continue
		}
		secs[i].off = off
		off = align64(off + secs[i].size)
	}
	return secs, off
}

// MappedSize returns the exact byte size WriteMapped will produce — used
// by containers that embed records at precomputed aligned offsets.
func (x *NSG) MappedSize() int64 {
	_, size := x.mappedLayout()
	return size
}

// WriteMapped serializes the index in the aligned NSGM layout. Unlike
// Write, the record is self-contained: the base vectors (in internal
// order), remap table and quantization state are all inside, so a single
// mmap serves the whole index. The record must start at a 64-byte-aligned
// file offset for OpenMapped's zero-copy views to hold; SaveMapped and
// the sharded container guarantee that.
//
// Works on both heap and mapped indexes (the slabs stream out either
// way), so re-saving a mapped index is a plain copy.
func (x *NSG) WriteMapped(w io.Writer) error {
	secs, recordSize := x.mappedLayout()
	// Pass one: checksum each section's encoded bytes so the header can
	// carry the CRCs that precede the data.
	for i := range secs {
		if secs[i].encode == nil {
			continue
		}
		h := crc32.NewIEEE()
		if err := secs[i].encode(h); err != nil {
			return fmt.Errorf("core: checksum %s section: %w", Section(i+1), err)
		}
		secs[i].crc = h.Sum32()
	}

	flags := uint32(nsgFlagRemap)
	if x.Quant != nil {
		flags |= nsgFlagQuant
	}
	if x.Meta != nil {
		flags |= nsgFlagMeta
	}
	hdr := make([]byte, mappedHeaderSize)
	le := func(off int, v uint32) { putU32(hdr, off, v) }
	le(0, nsgMappedMagic)
	le(4, nsgMappedVersion)
	le(8, flags)
	le(12, uint32(x.Base.Rows))
	le(16, uint32(x.Base.Dim))
	le(20, uint32(x.flat.Stride))
	le(24, uint32(x.Navigating))
	le(28, uint32(x.M))
	putU64(hdr, 32, uint64(recordSize))
	for i, s := range secs {
		base := sectionTableStart + i*sectionEntrySize
		putU64(hdr, base, uint64(s.off))
		putU64(hdr, base+8, uint64(s.size))
		le(base+16, s.crc)
	}
	le(headerCRCOffset, crc32.ChecksumIEEE(hdr[:headerCRCOffset]))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("core: write mapped header: %w", err)
	}

	// Pass two: sections with zero padding between the aligned offsets.
	pos := int64(mappedHeaderSize)
	var pad [mappedAlign]byte
	for i := range secs {
		s := &secs[i]
		if s.encode == nil {
			continue
		}
		if _, err := w.Write(pad[:s.off-pos]); err != nil {
			return fmt.Errorf("core: write mapped padding: %w", err)
		}
		if err := s.encode(w); err != nil {
			return fmt.Errorf("core: write %s section: %w", Section(i+1), err)
		}
		pos = s.off + s.size
	}
	if _, err := w.Write(pad[:recordSize-pos]); err != nil {
		return fmt.Errorf("core: write mapped padding: %w", err)
	}
	return nil
}

func putU32(b []byte, off int, v uint32) {
	b[off] = byte(v)
	b[off+1] = byte(v >> 8)
	b[off+2] = byte(v >> 16)
	b[off+3] = byte(v >> 24)
}

func putU64(b []byte, off int, v uint64) {
	putU32(b, off, uint32(v))
	putU32(b, off+4, uint32(v>>32))
}

func getU32(b []byte, off int) uint32 {
	return uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24
}

func getU64(b []byte, off int) uint64 {
	return uint64(getU32(b, off)) | uint64(getU32(b, off+4))<<32
}

// SaveMapped writes the aligned mapped record to path, crash-safely
// (temp file + fsync + rename).
func (x *NSG) SaveMapped(path string) error {
	return mstore.WriteFileAtomic(path, x.WriteMapped)
}

// OpenMapped opens an NSGM file written by SaveMapped and serves it in
// place: the adjacency, vector, remap and code slabs are zero-copy views
// of the mapping (or heap copies where mmap is unavailable). The
// returned index is read-only — see ErrReadOnly and PromoteToHeap — and
// holds the mapping until Close.
func OpenMapped(path string, opts MapOptions) (*NSG, error) {
	f, err := mstore.Open(path)
	if err != nil {
		return nil, err
	}
	x, _, err := OpenMappedAt(f, 0, f.Size(), opts, true)
	if err != nil {
		f.Close()
		return nil, err
	}
	x.mapped = f
	return x, nil
}

// OpenMappedAt parses an NSGM record embedded at offset off of f, with
// avail bytes available to it; exact requires the record to consume all
// of avail (top-level files and sized container slots). It returns the
// read-only index and the record's size. The caller keeps ownership of f
// — the index does not close it — so containers can open many records
// out of one mapping. off must be 64-byte aligned.
func OpenMappedAt(f *mstore.File, off, avail int64, opts MapOptions, exact bool) (*NSG, int64, error) {
	if !mstore.HostLittleEndian() {
		return nil, 0, fmt.Errorf("core: mapped serving requires a little-endian host; use the decoding Load path")
	}
	if off%mappedAlign != 0 {
		return nil, 0, corruptf(SectionHeader, "record offset %d is not %d-byte aligned", off, mappedAlign)
	}
	if avail < mappedHeaderSize {
		return nil, 0, corruptf(SectionHeader, "%d bytes available, header needs %d", avail, mappedHeaderSize)
	}
	hdr, err := f.Bytes(off, mappedHeaderSize)
	if err != nil {
		return nil, 0, corruptf(SectionHeader, "%v", err)
	}
	if getU32(hdr, 0) != nsgMappedMagic {
		return nil, 0, corruptf(SectionHeader, "bad magic %#08x", getU32(hdr, 0))
	}
	if v := getU32(hdr, 4); v != nsgMappedVersion {
		return nil, 0, corruptf(SectionHeader, "unsupported version %d (want %d)", v, nsgMappedVersion)
	}
	if got, want := getU32(hdr, headerCRCOffset), crc32.ChecksumIEEE(hdr[:headerCRCOffset]); got != want {
		return nil, 0, corruptf(SectionHeader, "header checksum %#08x != %#08x", got, want)
	}
	flags := getU32(hdr, 8)
	// Unknown bits, the reserved nsgFlagQuant4 among them, are rejected.
	if flags&^uint32(nsgFlagRemap|nsgFlagQuant|nsgFlagMeta) != 0 {
		return nil, 0, corruptf(SectionHeader, "unsupported flags %#x", flags)
	}
	rows := int64(getU32(hdr, 12))
	dim := int64(getU32(hdr, 16))
	stride := int64(getU32(hdr, 20))
	nav := int32(getU32(hdr, 24))
	m := int64(getU32(hdr, 28))
	recordSize := int64(getU64(hdr, 32))
	if rows <= 0 || rows > 1<<30 {
		return nil, 0, corruptf(SectionHeader, "implausible row count %d", rows)
	}
	if dim <= 0 || dim > 1<<20 {
		return nil, 0, corruptf(SectionHeader, "implausible dimension %d", dim)
	}
	if stride <= 0 || stride > rows {
		return nil, 0, corruptf(SectionHeader, "stride %d outside [1,%d]", stride, rows)
	}
	if nav < 0 || int64(nav) >= rows {
		return nil, 0, corruptf(SectionHeader, "navigating node %d outside [0,%d)", nav, rows)
	}
	if m < 0 || m > maxDegreeCap {
		return nil, 0, corruptf(SectionHeader, "implausible degree cap %d", m)
	}
	if recordSize < mappedHeaderSize || recordSize%mappedAlign != 0 || recordSize > avail {
		return nil, 0, corruptf(SectionHeader, "record size %d invalid for %d available bytes", recordSize, avail)
	}
	if exact && recordSize != avail {
		return nil, 0, corruptf(SectionHeader, "record size %d != %d available bytes (truncated or trailing garbage)", recordSize, avail)
	}

	// Section geometry: presence and size are dictated by the header
	// fields, placement must be aligned, in order and inside the record.
	// The metadata blob is the one variable-length section — its table
	// length is authoritative and the blob validates itself on decode.
	want := [mappedSections]int64{rows * stride * 4, rows * dim * 4, 0, 0, 0, 0}
	if flags&nsgFlagRemap != 0 {
		want[2] = rows * 4
	}
	if flags&nsgFlagQuant != 0 {
		want[3] = 2 * dim * 4
		want[4] = rows * dim
	}
	var offs, lens [mappedSections]int64
	var crcs [mappedSections]uint32
	prevEnd := int64(mappedHeaderSize)
	for i := 0; i < mappedSections; i++ {
		base := sectionTableStart + i*sectionEntrySize
		offs[i] = int64(getU64(hdr, base))
		lens[i] = int64(getU64(hdr, base+8))
		crcs[i] = getU32(hdr, base+16)
		sec := Section(i + 1)
		if sec == SectionMeta && flags&nsgFlagMeta != 0 {
			if lens[i] <= 0 || lens[i] > maxMetaBlob {
				return nil, 0, corruptf(sec, "implausible metadata length %d", lens[i])
			}
			want[i] = lens[i]
		}
		if want[i] == 0 {
			if offs[i] != 0 || lens[i] != 0 {
				return nil, 0, corruptf(sec, "section present but flags say absent")
			}
			continue
		}
		if lens[i] != want[i] {
			return nil, 0, corruptf(sec, "section length %d, header geometry implies %d", lens[i], want[i])
		}
		if offs[i]%mappedAlign != 0 {
			return nil, 0, corruptf(sec, "offset %d is not %d-byte aligned", offs[i], mappedAlign)
		}
		if offs[i] < prevEnd {
			return nil, 0, corruptf(sec, "offset %d overlaps previous section ending at %d", offs[i], prevEnd)
		}
		if offs[i]+lens[i] > recordSize || offs[i]+lens[i] < offs[i] {
			return nil, 0, corruptf(sec, "section [%d,%d) exceeds record size %d", offs[i], offs[i]+lens[i], recordSize)
		}
		prevEnd = offs[i] + lens[i]
	}

	view := func(i int) ([]byte, error) {
		b, err := f.Bytes(off+offs[i], lens[i])
		if err != nil {
			return nil, corruptf(Section(i+1), "%v", err)
		}
		return b, nil
	}
	adjBytes, err := view(0)
	if err != nil {
		return nil, 0, err
	}
	vecBytes, err := view(1)
	if err != nil {
		return nil, 0, err
	}
	if !opts.NoVerify {
		for i := 0; i < mappedSections; i++ {
			if want[i] == 0 {
				continue
			}
			b, err := view(i)
			if err != nil {
				return nil, 0, err
			}
			if got := crc32.ChecksumIEEE(b); got != crcs[i] {
				return nil, 0, corruptf(Section(i+1), "checksum %#08x != %#08x (bit rot or torn write)", got, crcs[i])
			}
		}
	}

	flat := &graphutil.FlatGraph{Data: mstore.Int32s(adjBytes), Stride: int(stride), Nodes: int(rows)}
	if !opts.NoVerify {
		if err := flat.Validate(); err != nil {
			return nil, 0, corruptf(SectionAdjacency, "%v", err)
		}
	}
	// A record without a remap section was never relaid: identity ids.
	x := newNSG(flat, nav, vecmath.Matrix{Data: mstore.Float32s(vecBytes), Rows: int(rows), Dim: int(dim)}, int(m))
	x.ro = true
	if flags&nsgFlagRemap != 0 {
		remapBytes, err := view(2)
		if err != nil {
			return nil, 0, err
		}
		pub := mstore.Int32s(remapBytes)
		// Building the inverse table doubles as the permutation check, so
		// the remap is validated even under NoVerify — a hostile entry
		// would otherwise index out of bounds on the first translated
		// search result.
		inv := x.toInternal
		for i := range inv {
			inv[i] = -1
		}
		for internal, p := range pub {
			if p < 0 || int64(p) >= rows || inv[p] != -1 {
				return nil, 0, corruptf(SectionRemap, "entry %d (value %d) is not a permutation of [0,%d)", internal, p, rows)
			}
			inv[p] = int32(internal)
		}
		x.PubIDs = pub
	}
	if flags&nsgFlagMeta != 0 {
		metaBytes, err := view(5)
		if err != nil {
			return nil, 0, err
		}
		// The metadata columns are decoded onto the heap (they are small and
		// dictionary-compressed, and filter compilation wants them mutable-
		// friendly); the blob's embedded checksum makes the decode
		// self-validating even under NoVerify. Copy out of the mapping first
		// so the store never aliases PROT_READ pages.
		st, err := meta.Decode(append([]byte(nil), metaBytes...), int(rows))
		if err != nil {
			return nil, 0, corruptf(SectionMeta, "%v", err)
		}
		x.Meta = st
	}
	if flags&nsgFlagQuant != 0 {
		if dim > quant.MaxDim {
			return nil, 0, corruptf(SectionQuantBounds, "dimension %d exceeds the quantizer limit %d", dim, quant.MaxDim)
		}
		boundsBytes, err := view(3)
		if err != nil {
			return nil, 0, err
		}
		codeBytes, err := view(4)
		if err != nil {
			return nil, 0, err
		}
		// The bounds are two dim-sized vectors; copy them to the heap (they
		// are tiny) so the derived scale fields live beside them as usual.
		// The code slab itself is served zero-copy out of the mapping.
		bounds := mstore.Float32s(boundsBytes)
		min := append([]float32(nil), bounds[:dim]...)
		max := append([]float32(nil), bounds[dim:]...)
		x.Quant = &Quantized{
			Q:     quant.FromBounds(min, max),
			Codes: quant.CodeMatrix{Codes: codeBytes, Rows: int(rows), Dim: int(dim)},
		}
		// ρ rides on the verification pass, which has just read every row;
		// without it ρ stays unknown and the rerank reads every float row.
		if !opts.NoVerify {
			x.Quant.measureRho(x.Base)
		}
	}
	return x, recordSize, nil
}

// ReadOnly reports whether the index is a mapped, read-only view. Mutating
// operations on a read-only index return ErrReadOnly.
func (x *NSG) ReadOnly() bool { return x.ro }

// Close releases the index's file mapping, if it owns one (indexes opened
// through a container are closed by the container). The index must not be
// used after Close: its slabs point into the released mapping.
func (x *NSG) Close() error {
	if x.mapped == nil {
		return nil
	}
	f := x.mapped
	x.mapped = nil
	return f.Close()
}

// PromoteToHeap converts a mapped index into an ordinary mutable
// heap-resident index: every slab is copied out of the mapping, and the
// mapping (when owned) is released. The copy reads every row, so an
// unknown ρ (an open with NoVerify) is measured on the way. A no-op on an
// index that is already heap-resident.
func (x *NSG) PromoteToHeap() error {
	if !x.ro {
		return nil
	}
	x.flat, x.shared = x.flat.Restride(x.flat.Stride), false
	x.Base = vecmath.Matrix{
		Data: append([]float32(nil), x.Base.Data...),
		Rows: x.Base.Rows,
		Dim:  x.Base.Dim,
	}
	x.PubIDs = append([]int32(nil), x.PubIDs...)
	if x.Quant != nil {
		qz := *x.Quant
		qz.Codes.Codes = append([]uint8(nil), qz.Codes.Codes...)
		if !qz.hasRho {
			qz.measureRho(x.Base)
		}
		x.Quant = &qz
	}
	x.ro = false
	return x.Close()
}
