package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/chunkio"
	"repro/internal/graphutil"
	"repro/internal/mstore"
	"repro/internal/vecmath"
	"repro/internal/vecmath/quant"
)

// This file is the disk-resident serving layout: the NSGM record stores
// the index's serving slabs — CSR offsets and edges, vectors in internal
// (post-relayout) order, the id-remap table, SQ8 bounds and codes — at
// 64-byte-aligned offsets in exactly the in-memory representation the
// search engine consumes, so OpenMappedAt can point CSR/Matrix/CodeMatrix
// headers straight into a memory-mapped file that the container holding
// the record opened and owns. Version 1 records, which older builds wrote,
// hold fixed-stride adjacency rows instead; those open with their rows
// converted to CSR on the heap. Restart cost is O(file open) instead of
// O(decode), capacity is bounded by the page cache rather than the heap,
// and the BFS Relayout's locality transfers directly to page locality.
//
// A mapped index takes writes by copying out of the mapping first: the
// first Insert unpacks the mapped CSR into adjacency lists over a heap copy
// of its edge slab (a CSR is never written; the next Snapshot lays the
// lists out afresh), and vectors, codes and ids grow by append onto views
// whose capacity equals their length, so the first append copies the slab
// to the heap. Mapped memory is PROT_READ, so a stray write into it
// faults. By the end of the first Insert every slab is a heap copy, and
// once the snapshot that reads the copies is published, ReleaseMapped
// hands the record's pages back to the kernel (mstore.File.Release), so a
// written index does not hold its data twice. A search still reading an
// older snapshot faults the pages it touches back in from the file, which
// holds the same bytes.

const (
	// nsgMappedMagic marks the aligned mapped record.
	nsgMappedMagic   = 0x4e53474d // "NSGM"
	nsgMappedVersion = 2

	mappedAlign      = 64
	mappedHeaderSize = 192 // 3 * mappedAlign

	// Section table layout inside the header: six fixed slots of
	// {offset u64, length u64, crc32 u32, reserved u32}, holding the
	// sections mappedSlots lists for the record's version. Version 1's
	// sixth (meta) slot held the metadata blob of the one-index NSGM files
	// older builds wrote; the reader refuses it (see nsgFlagMeta).
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
	SectionOffsets
)

var sectionNames = [...]string{"header", "adjacency", "vectors", "remap", "quant-bounds", "codes", "meta", "offsets"}

// mappedSlots names the section each table slot holds, per record version:
// version 2 stores CSR offsets and edges (the adjacency section), version 1
// fixed-stride adjacency rows and a metadata slot that must be empty.
var mappedSlots = [...][mappedSections]Section{
	1: {SectionAdjacency, SectionVectors, SectionRemap, SectionQuantBounds, SectionCodes, SectionMeta},
	2: {SectionOffsets, SectionAdjacency, SectionVectors, SectionRemap, SectionQuantBounds, SectionCodes},
}

func (s Section) String() string {
	if s < 0 || int(s) >= len(sectionNames) {
		return fmt.Sprintf("section(%d)", int(s))
	}
	return sectionNames[s]
}

// FormatError reports a corrupt, truncated or structurally invalid mapped
// index file, naming the section where validation failed (containers use
// SectionHeader for their own tables). Match with errors.As to inspect the
// section programmatically.
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

// MapOptions configures OpenMappedAt.
type MapOptions struct {
	// NoVerify skips the whole-file content verification pass (per-section
	// CRC32 checks and a graph structure scan), making open O(1) in index
	// size — the trusted-storage fast-restart path. Header geometry,
	// checksummed headers, the CSR offsets and the id-remap permutation are
	// still validated.
	// Only set this when the file comes from storage you trust end to end:
	// with NoVerify, in-place corruption of a slab can crash searches or
	// silently return wrong results.
	NoVerify bool
}

// le is the byte order of every mapped slab and header field.
var le = binary.LittleEndian

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

// mappedLayout computes the section slots for this index in version 2's
// order, all sized by the header geometry. The rows Inserts left are laid
// out first.
func (x *NSG) mappedLayout() ([mappedSections]mappedSection, int64) {
	offsets, edges := x.FlatView().Slabs()
	rows := int64(x.Base.Rows)
	dim := int64(x.Base.Dim)
	var secs [mappedSections]mappedSection
	secs[0].size = (rows + 1) * 4
	secs[0].encode = func(w io.Writer) error { return chunkio.WriteInt32s(w, offsets) }
	if len(edges) > 0 {
		secs[1].size = int64(len(edges)) * 4
		secs[1].encode = func(w io.Writer) error { return chunkio.WriteInt32s(w, edges) }
	}
	secs[2].size = rows * dim * 4
	secs[2].encode = func(w io.Writer) error { return chunkio.WriteFloat32s(w, x.Base.Data) }
	secs[3].size = rows * 4
	secs[3].encode = func(w io.Writer) error { return chunkio.WriteInt32s(w, x.PubIDs) }
	if x.Quant != nil {
		// The bounds section is two dim-sized float vectors; the code slab
		// is rows*dim bytes.
		secs[4].size = 2 * dim * 4
		secs[4].encode = func(w io.Writer) error {
			if err := chunkio.WriteFloat32s(w, x.Quant.Q.Min); err != nil {
				return err
			}
			return chunkio.WriteFloat32s(w, x.Quant.Q.Max)
		}
		secs[5].size = rows * dim
		secs[5].encode = func(w io.Writer) error {
			_, err := w.Write(x.Quant.Codes.Codes)
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

// WriteMapped serializes the index in the aligned NSGM layout, the only
// record any index writes. It is self-contained: the base vectors (in
// internal order), remap table and quantization state are all inside, so a
// single mmap serves the whole index. The record must start at a
// 64-byte-aligned file offset for OpenMappedAt's zero-copy views to hold;
// the container guarantees that.
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
			return fmt.Errorf("core: checksum %s section: %w", mappedSlots[nsgMappedVersion][i], err)
		}
		secs[i].crc = h.Sum32()
	}

	flags := uint32(nsgFlagRemap)
	if x.Quant != nil {
		flags |= nsgFlagQuant
	}
	hdr := make([]byte, mappedHeaderSize)
	le.PutUint32(hdr[0:], nsgMappedMagic)
	le.PutUint32(hdr[4:], nsgMappedVersion)
	le.PutUint32(hdr[8:], flags)
	le.PutUint32(hdr[12:], uint32(x.Base.Rows))
	le.PutUint32(hdr[16:], uint32(x.Base.Dim))
	le.PutUint32(hdr[20:], uint32(x.flat.Edges()))
	le.PutUint32(hdr[24:], uint32(x.Navigating))
	le.PutUint32(hdr[28:], uint32(x.M))
	le.PutUint64(hdr[32:], uint64(recordSize))
	for i, s := range secs {
		base := sectionTableStart + i*sectionEntrySize
		le.PutUint64(hdr[base:], uint64(s.off))
		le.PutUint64(hdr[base+8:], uint64(s.size))
		le.PutUint32(hdr[base+16:], s.crc)
	}
	le.PutUint32(hdr[headerCRCOffset:], crc32.ChecksumIEEE(hdr[:headerCRCOffset]))
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
			return fmt.Errorf("core: write %s section: %w", mappedSlots[nsgMappedVersion][i], err)
		}
		pos = s.off + s.size
	}
	if _, err := w.Write(pad[:recordSize-pos]); err != nil {
		return fmt.Errorf("core: write mapped padding: %w", err)
	}
	return nil
}

// OpenMappedAt serves the NSGM record of exactly size bytes at offset off
// of f in place: the adjacency, vector, remap and code slabs are zero-copy
// views of the mapping (or heap copies where mmap is unavailable). The
// returned index copies a slab out of the mapping before its first write
// to it (see the top of this file). The caller keeps ownership of f, so a
// container opens many records out of one mapping, and must keep it open
// while the index serves. off must be 64-byte aligned.
func OpenMappedAt(f *mstore.File, off, size int64, opts MapOptions) (*NSG, error) {
	if !mstore.HostLittleEndian() {
		return nil, fmt.Errorf("core: index files are little-endian slabs served in place; a big-endian host cannot open them")
	}
	if off%mappedAlign != 0 {
		return nil, corruptf(SectionHeader, "record offset %d is not %d-byte aligned", off, mappedAlign)
	}
	if size < mappedHeaderSize {
		return nil, corruptf(SectionHeader, "%d bytes available, header needs %d", size, mappedHeaderSize)
	}
	hdr, err := f.Bytes(off, mappedHeaderSize)
	if err != nil {
		return nil, corruptf(SectionHeader, "%v", err)
	}
	if le.Uint32(hdr[0:]) != nsgMappedMagic {
		return nil, corruptf(SectionHeader, "bad magic %#08x", le.Uint32(hdr[0:]))
	}
	version := le.Uint32(hdr[4:])
	if version != 1 && version != nsgMappedVersion {
		return nil, corruptf(SectionHeader, "unsupported version %d (want 1 or %d)", version, nsgMappedVersion)
	}
	if got, want := le.Uint32(hdr[headerCRCOffset:]), crc32.ChecksumIEEE(hdr[:headerCRCOffset]); got != want {
		return nil, corruptf(SectionHeader, "header checksum %#08x != %#08x", got, want)
	}
	flags := le.Uint32(hdr[8:])
	// Unknown bits, the reserved nsgFlagQuant4 and nsgFlagMeta among them,
	// are rejected.
	if flags&^uint32(nsgFlagRemap|nsgFlagQuant) != 0 {
		return nil, corruptf(SectionHeader, "unsupported flags %#x", flags)
	}
	rows := int64(le.Uint32(hdr[12:]))
	dim := int64(le.Uint32(hdr[16:]))
	width := int64(le.Uint32(hdr[20:])) // version 1: row stride; version 2: edge count
	nav := int32(le.Uint32(hdr[24:]))
	m := int64(le.Uint32(hdr[28:]))
	recordSize := int64(le.Uint64(hdr[32:]))
	if rows <= 0 || rows > 1<<30 {
		return nil, corruptf(SectionHeader, "implausible row count %d", rows)
	}
	if dim <= 0 || dim > 1<<20 {
		return nil, corruptf(SectionHeader, "implausible dimension %d", dim)
	}
	if version == 1 && (width <= 0 || width > rows) {
		return nil, corruptf(SectionHeader, "stride %d outside [1,%d]", width, rows)
	}
	if version > 1 && width > math.MaxInt32 {
		return nil, corruptf(SectionHeader, "implausible edge count %d", width)
	}
	if nav < 0 || int64(nav) >= rows {
		return nil, corruptf(SectionHeader, "navigating node %d outside [0,%d)", nav, rows)
	}
	if m < 0 || m > maxDegreeCap {
		return nil, corruptf(SectionHeader, "implausible degree cap %d", m)
	}
	if recordSize%mappedAlign != 0 || recordSize != size {
		return nil, corruptf(SectionHeader, "record size %d invalid for %d available bytes (truncated or trailing garbage)", recordSize, size)
	}

	// Section geometry: presence and size are dictated by the header
	// fields, placement must be aligned, in order and inside the record.
	slots := mappedSlots[version]
	var want, offs, lens [mappedSections]int64
	var crcs [mappedSections]uint32
	sizes := map[Section]int64{SectionOffsets: (rows + 1) * 4, SectionAdjacency: width * 4, SectionVectors: rows * dim * 4}
	if version == 1 {
		sizes[SectionAdjacency] *= rows
	}
	if flags&nsgFlagRemap != 0 {
		sizes[SectionRemap] = rows * 4
	}
	if flags&nsgFlagQuant != 0 {
		sizes[SectionQuantBounds], sizes[SectionCodes] = 2*dim*4, rows*dim
	}
	prevEnd := int64(mappedHeaderSize)
	for i, sec := range slots {
		want[i] = sizes[sec]
		base := sectionTableStart + i*sectionEntrySize
		offs[i] = int64(le.Uint64(hdr[base:]))
		lens[i] = int64(le.Uint64(hdr[base+8:]))
		crcs[i] = le.Uint32(hdr[base+16:])
		if want[i] == 0 {
			if offs[i] != 0 || lens[i] != 0 {
				return nil, corruptf(sec, "section present but flags say absent")
			}
			continue
		}
		if lens[i] != want[i] {
			return nil, corruptf(sec, "section length %d, header geometry implies %d", lens[i], want[i])
		}
		if offs[i]%mappedAlign != 0 {
			return nil, corruptf(sec, "offset %d is not %d-byte aligned", offs[i], mappedAlign)
		}
		if offs[i] < prevEnd {
			return nil, corruptf(sec, "offset %d overlaps previous section ending at %d", offs[i], prevEnd)
		}
		if offs[i]+lens[i] > recordSize || offs[i]+lens[i] < offs[i] {
			return nil, corruptf(sec, "section [%d,%d) exceeds record size %d", offs[i], offs[i]+lens[i], recordSize)
		}
		prevEnd = offs[i] + lens[i]
	}

	// view returns section sec's bytes, nil when the record has none.
	view := func(sec Section) ([]byte, error) {
		i := slices.Index(slots[:], sec)
		if i < 0 || want[i] == 0 {
			return nil, nil
		}
		b, err := f.Bytes(off+offs[i], lens[i])
		if err != nil {
			return nil, corruptf(sec, "%v", err)
		}
		return b, nil
	}
	adjBytes, err := view(SectionAdjacency)
	if err != nil {
		return nil, err
	}
	vecBytes, err := view(SectionVectors)
	if err != nil {
		return nil, err
	}
	if !opts.NoVerify {
		for i, sec := range slots {
			b, err := view(sec)
			if err != nil {
				return nil, err
			}
			if got := crc32.ChecksumIEEE(b); b != nil && got != crcs[i] {
				return nil, corruptf(sec, "checksum %#08x != %#08x (bit rot or torn write)", got, crcs[i])
			}
		}
	}

	var flat *graphutil.CSR
	if version == 1 {
		flat, err = stridedToCSR(mstore.Int32s(adjBytes), int(width), int(rows))
	} else {
		var offBytes []byte
		if offBytes, err = view(SectionOffsets); err != nil {
			return nil, err
		}
		if flat, err = graphutil.FromOffsets(mstore.Int32s(offBytes), mstore.Int32s(adjBytes)); err != nil {
			return nil, corruptf(SectionOffsets, "%v", err)
		}
	}
	if err == nil && !opts.NoVerify {
		err = flat.Validate()
	}
	if err != nil {
		return nil, corruptf(SectionAdjacency, "%v", err)
	}
	// A record without a remap section was never relaid: identity ids.
	x := newNSG(flat, nav, vecmath.Matrix{Data: mstore.Float32s(vecBytes), Rows: int(rows), Dim: int(dim)}, int(m))
	x.release = func() { f.Release(off, size) }
	if flags&nsgFlagRemap != 0 {
		remapBytes, err := view(SectionRemap)
		if err != nil {
			return nil, err
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
				return nil, corruptf(SectionRemap, "entry %d (value %d) is not a permutation of [0,%d)", internal, p, rows)
			}
			inv[p] = int32(internal)
		}
		x.PubIDs = pub
	}
	if flags&nsgFlagQuant != 0 {
		if dim > quant.MaxDim {
			return nil, corruptf(SectionQuantBounds, "dimension %d exceeds the quantizer limit %d", dim, quant.MaxDim)
		}
		boundsBytes, err := view(SectionQuantBounds)
		if err != nil {
			return nil, err
		}
		codeBytes, err := view(SectionCodes)
		if err != nil {
			return nil, err
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
	return x, nil
}

// stridedToCSR converts a version 1 record's fixed-stride rows — each a
// degree followed by that many ids, padded to stride slots — to CSR on the
// heap. Every degree is checked on the way; the ids are Validate's.
func stridedToCSR(data []int32, stride, rows int) (*graphutil.CSR, error) {
	g := graphutil.New(rows)
	for i := range g.Adj {
		row := data[i*stride : (i+1)*stride]
		if d := row[0]; d < 0 || int(d) >= stride {
			return nil, fmt.Errorf("node %d degree %d exceeds stride %d", i, d, stride)
		}
		g.Adj[i] = row[1 : 1+row[0]]
	}
	return graphutil.Flatten(g), nil
}
