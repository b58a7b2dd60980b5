package nsg

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/chunkio"
	"repro/internal/core"
	"repro/internal/meta"
	"repro/internal/mstore"
)

// This file is the one written format, the sharded twin of core's NSGM
// record: one aligned container holding the options blob (see
// Options.encode), per shard its global-id map and a complete embedded
// NSGM record (adjacency + vectors + remap + codes), plus one optional
// global metadata section. OpenMapped serves every shard zero-copy out of a
// single mapping, so a multi-shard restart costs one file open instead of
// one decode per shard. As on the heap, each shard's vectors live only in
// its record, and the id maps become the handles' translate tables and the
// locator. The only shard of a one-shard index stores an empty id map,
// which means the identity. open is the one way to open the file.

const (
	// shardedMappedMagic is "NSMS" — distinct from every magic older
	// builds wrote, so openMapped tells the layouts apart by the first word.
	shardedMappedMagic = 0x4e534d53
	// Version 2 adds the metadata entry after the shard table and the
	// metadata blob after the last record. Containers without metadata are
	// still written as version 1, so version 1 readers only reject files
	// that actually carry the new section.
	shardedMappedVersion     = 1
	shardedMappedVersionMeta = 2

	// The header's last 32 bytes hold the options blob, zero-padded.
	smHeaderSize     = 64
	smShardEntrySize = 40
	smMetaEntrySize  = 24
	smAlign          = 64

	// maxShardedMetaBlob bounds the metadata section a reader will accept.
	maxShardedMetaBlob = 1 << 30
)

// The options blob a file's header carries: GraphK, BuildL, MaxDegree and
// SearchL, then the flags word (quantization and metric). A zero option
// word means the default.
const (
	optionsSize = 20
	optQuantize = 1 << 0 // QuantMode(1) is QuantSQ8, so the bit is the mode
	// optInt4 is reserved. Set beside optQuantize it marked the int4 path,
	// which was removed; decodeOptions rejects it as an unknown bit, and it
	// must not be reused, so an old int4 file is never misread.
	optInt4 = 1 << 1
	// Bits 2-3 hold Options.Metric. L2 is 0, so an L2 index writes the
	// bytes it wrote before metrics were stored.
	optMetricShift = 2
	optMetricMask  = 3 << optMetricShift
)

// encode returns the options blob of the fields a file keeps.
func (o Options) encode() []byte {
	blob := make([]byte, optionsSize)
	for i, v := range []int{o.GraphK, o.BuildL, o.MaxDegree, o.SearchL} {
		binary.LittleEndian.PutUint32(blob[4*i:], uint32(v))
	}
	binary.LittleEndian.PutUint32(blob[16:], uint32(o.Metric)<<optMetricShift|uint32(o.Quantize))
	return blob
}

// decodeOptions is the inverse of encode. A flags word with any bit it
// does not know, the reserved optInt4 among them, is an error.
func decodeOptions(blob []byte) (Options, error) {
	u := func(i int) int { return int(binary.LittleEndian.Uint32(blob[4*i:])) }
	flags := uint32(u(4))
	metric := Metric(flags & optMetricMask >> optMetricShift)
	if flags&^(optQuantize|optMetricMask) != 0 || metric.check() != nil {
		return Options{}, fmt.Errorf("unsupported option flags %#x", flags)
	}
	return Options{GraphK: u(0), BuildL: u(1), MaxDegree: u(2), SearchL: u(3),
		Quantize: QuantMode(flags & optQuantize), Metric: metric}, nil
}

func smAlignUp(n int64) int64 { return (n + smAlign - 1) &^ (smAlign - 1) }

// idMaps returns every shard's id map (its handle's translate table: nil,
// the identity, for the only shard of a one-shard index) and the rows they
// cover.
func (s *sharded) idMaps() ([][]int32, int) {
	ids := make([][]int32, len(s.handles))
	rows := 0
	for sh, h := range s.handles {
		if ids[sh] = h.Translate(); ids[sh] == nil {
			rows += h.Stats().SnapshotRows
		}
		rows += len(ids[sh])
	}
	return ids, rows
}

// write serializes the index, heap or mapped alike, as one aligned
// container, with the options open hands back.
func (x *Index) write(w io.Writer) error {
	s := x.s
	nShards := len(s.shards)
	ids, rows := s.idMaps()
	version, tableLen := uint32(shardedMappedVersion), nShards*smShardEntrySize
	var metaBlob []byte
	if s.meta != nil {
		version, tableLen = shardedMappedVersionMeta, tableLen+smMetaEntrySize
		metaBlob = s.meta.AppendEncode(nil)
	}

	// Lay out: header, shard table (and metadata entry), table checksum,
	// then per shard the aligned id map and the aligned embedded record,
	// then the metadata blob.
	type entry struct {
		idmapOff, idmapLen int64
		recOff, recLen     int64
		idmapCRC           uint32
	}
	slots := make([]entry, nShards)
	off := smAlignUp(int64(smHeaderSize + tableLen + 4))
	for sh := range s.shards {
		slots[sh].idmapOff = off
		slots[sh].idmapLen = int64(len(ids[sh])) * 4
		h := crc32.NewIEEE()
		chunkio.WriteInt32s(h, ids[sh]) // a hash's Write never fails
		slots[sh].idmapCRC = h.Sum32()
		off = smAlignUp(off + slots[sh].idmapLen)
		slots[sh].recOff = off
		slots[sh].recLen = s.shards[sh].MappedSize()
		off += slots[sh].recLen
	}
	metaOff := off
	fileSize := off + int64(len(metaBlob))

	head := make([]byte, smHeaderSize+tableLen+4)
	le := binary.LittleEndian
	le.PutUint32(head[0:], shardedMappedMagic)
	le.PutUint32(head[4:], version)
	le.PutUint32(head[8:], uint32(nShards))
	le.PutUint32(head[12:], uint32(rows))
	le.PutUint32(head[16:], uint32(s.dim))
	le.PutUint64(head[24:], uint64(fileSize))
	copy(head[32:smHeaderSize], x.opts.encode())
	for sh, sl := range slots {
		base := smHeaderSize + sh*smShardEntrySize
		le.PutUint64(head[base:], uint64(sl.idmapOff))
		le.PutUint64(head[base+8:], uint64(sl.idmapLen))
		le.PutUint64(head[base+16:], uint64(sl.recOff))
		le.PutUint64(head[base+24:], uint64(sl.recLen))
		le.PutUint32(head[base+32:], sl.idmapCRC)
	}
	if metaBlob != nil {
		base := smHeaderSize + nShards*smShardEntrySize
		le.PutUint64(head[base:], uint64(metaOff))
		le.PutUint64(head[base+8:], uint64(len(metaBlob)))
		le.PutUint32(head[base+16:], crc32.ChecksumIEEE(metaBlob))
	}
	crcAt := smHeaderSize + tableLen
	le.PutUint32(head[crcAt:], crc32.ChecksumIEEE(head[:crcAt]))
	if _, err := w.Write(head); err != nil {
		return fmt.Errorf("write mapped header: %w", err)
	}

	pos := int64(len(head))
	var pad [smAlign]byte
	for sh, sl := range slots {
		if _, err := w.Write(pad[:sl.idmapOff-pos]); err != nil {
			return fmt.Errorf("write padding: %w", err)
		}
		if err := chunkio.WriteInt32s(w, ids[sh]); err != nil {
			return fmt.Errorf("write shard %d id map: %w", sh, err)
		}
		pos = sl.idmapOff + sl.idmapLen
		if _, err := w.Write(pad[:sl.recOff-pos]); err != nil {
			return fmt.Errorf("write padding: %w", err)
		}
		if err := s.shards[sh].WriteMapped(w); err != nil {
			return fmt.Errorf("write shard %d record: %w", sh, err)
		}
		pos = sl.recOff + sl.recLen
	}
	if _, err := w.Write(metaBlob); err != nil {
		return fmt.Errorf("write metadata: %w", err)
	}
	return nil
}

func smCorrupt(format string, args ...any) error {
	return &core.FormatError{Section: core.SectionHeader, Reason: fmt.Sprintf(format, args...)}
}

// open opens a container written by Save and serves all shards from the
// mapping, with the options Save stored (zero fields take DefaultOptions'
// values). A file in a layout older builds wrote (a stream, or a top-level
// NSGM record) is refused. Searches, the worker pool and write behave
// exactly as on a heap index, and Add and Compact work too: a shard's first
// drain copies its record out of the mapping and releases the record's
// pages. The mapping lives until Close. A damaged file fails with a
// *core.FormatError.
func open(path string, mopts MapOptions) (*Index, error) {
	f, err := mstore.Open(path)
	if err != nil {
		return nil, err
	}
	s, opts, err := openMapped(f, mopts)
	if err != nil {
		f.Close()
		return nil, err
	}
	s.mapped = f
	opts.fillDefaults()
	return newIndex(s, opts), nil
}

func openMapped(f *mstore.File, mopts MapOptions) (*sharded, Options, error) {
	var none Options
	le := binary.LittleEndian
	hdr, err := f.Bytes(0, min(f.Size(), smHeaderSize))
	if err != nil {
		return nil, none, smCorrupt("%v", err)
	}
	var magic uint32
	if len(hdr) >= 4 {
		magic = le.Uint32(hdr)
	}
	switch magic {
	case shardedMappedMagic:
	case 0x4e534744, 0x4e534742, 0x4e534746, 0x4e534751: // NSGD, NSGB, NSGF, NSGQ
		return nil, none, smCorrupt("%s is a stream layout this build does not read; re-save the file with Load and Save of a build at or before commit ad169cf",
			[]byte{hdr[3], hdr[2], hdr[1], hdr[0]})
	case 0x4e53474d: // NSGM
		return nil, none, smCorrupt("NSGM is a one-index layout this build does not read; re-save the file with Load and Save of a build at or before commit 179f053")
	default:
		return nil, none, smCorrupt("bad magic %#08x", magic)
	}
	if len(hdr) < smHeaderSize {
		return nil, none, smCorrupt("file of %d bytes is smaller than any container", f.Size())
	}
	version := le.Uint32(hdr[4:])
	if version != shardedMappedVersion && version != shardedMappedVersionMeta {
		return nil, none, smCorrupt("unsupported container version %d", version)
	}
	nShards := int(le.Uint32(hdr[8:]))
	rows := int(le.Uint32(hdr[12:]))
	dim := int(le.Uint32(hdr[16:]))
	fileSize := int64(le.Uint64(hdr[24:]))
	if nShards <= 0 || nShards > 1<<16 {
		return nil, none, smCorrupt("implausible shard count %d", nShards)
	}
	if rows <= 0 || dim <= 0 {
		return nil, none, smCorrupt("implausible geometry %d rows x %d dims", rows, dim)
	}
	if fileSize != f.Size() {
		return nil, none, smCorrupt("header says %d bytes, file has %d (truncated or trailing garbage)", fileSize, f.Size())
	}
	opts, err := decodeOptions(hdr[32:])
	if err != nil {
		return nil, none, smCorrupt("%v", err)
	}

	tableLen := int64(nShards*smShardEntrySize) + 4
	if version == shardedMappedVersionMeta {
		tableLen += smMetaEntrySize
	}
	table, err := f.Bytes(smHeaderSize, tableLen)
	if err != nil {
		return nil, none, smCorrupt("shard table: %v", err)
	}
	crcHere := crc32.NewIEEE()
	crcHere.Write(hdr)
	crcHere.Write(table[:len(table)-4])
	if got := le.Uint32(table[len(table)-4:]); got != crcHere.Sum32() {
		return nil, none, smCorrupt("shard table checksum %#08x != %#08x", got, crcHere.Sum32())
	}

	s := &sharded{dim: dim}
	var maps [][]int32
	for sh := 0; sh < nShards; sh++ {
		base := sh * smShardEntrySize
		idmapOff := int64(le.Uint64(table[base:]))
		idmapLen := int64(le.Uint64(table[base+8:]))
		recOff := int64(le.Uint64(table[base+16:]))
		recLen := int64(le.Uint64(table[base+24:]))
		idmapCRC := le.Uint32(table[base+32:])
		// An empty id map is the identity, which only the only shard of an
		// index can hold.
		if idmapLen < 0 || (idmapLen == 0 && nShards != 1) || idmapLen%4 != 0 || idmapOff%smAlign != 0 ||
			idmapOff < smHeaderSize+tableLen || idmapOff+idmapLen > fileSize {
			return nil, none, smCorrupt("shard %d id map [%d,%d) invalid", sh, idmapOff, idmapOff+idmapLen)
		}
		idmapBytes, err := f.Bytes(idmapOff, idmapLen)
		if err != nil {
			return nil, none, smCorrupt("shard %d id map: %v", sh, err)
		}
		// Id maps are always fully validated (checksum here, the partition
		// in start): they are tiny next to the vector slabs and a bad entry
		// would surface as a wrong result id, not a crash — the worst
		// failure mode to ship silently.
		if got := crc32.ChecksumIEEE(idmapBytes); got != idmapCRC {
			return nil, none, smCorrupt("shard %d id map checksum %#08x != %#08x", sh, got, idmapCRC)
		}
		ids := mstore.Int32s(idmapBytes)
		idx, err := core.OpenMappedAt(f, recOff, recLen, mopts)
		if err != nil {
			return nil, none, fmt.Errorf("shard %d: %w", sh, err)
		}
		want := len(ids)
		if idmapLen == 0 {
			want = rows // the identity map covers every row
		}
		if idx.Base.Rows != want || idx.Base.Dim != dim {
			return nil, none, smCorrupt("shard %d record is %dx%d, id map and container imply %dx%d",
				sh, idx.Base.Rows, idx.Base.Dim, want, dim)
		}
		s.shards = append(s.shards, idx)
		maps = append(maps, ids)
	}
	if version == shardedMappedVersionMeta {
		if err := s.openMeta(f, table[nShards*smShardEntrySize:], smHeaderSize+tableLen, rows); err != nil {
			return nil, none, err
		}
	}
	if err := s.start(maps, rows); err != nil {
		return nil, none, smCorrupt("%v", err)
	}
	return s, opts, nil
}

// openMeta decodes the metadata section that entry (the table's metadata
// entry: offset, length, checksum) locates past the table's end, onto the
// heap: the columns are small, and the store never aliases the mapping.
func (s *sharded) openMeta(f *mstore.File, entry []byte, tableEnd int64, rows int) error {
	off := int64(binary.LittleEndian.Uint64(entry[0:]))
	size := int64(binary.LittleEndian.Uint64(entry[8:]))
	if size <= 0 || size > maxShardedMetaBlob || off%smAlign != 0 || off < tableEnd || off+size > f.Size() {
		return &core.FormatError{Section: core.SectionMeta, Reason: fmt.Sprintf("metadata [%d,%d) invalid", off, off+size)}
	}
	b, err := f.Bytes(off, size)
	if err != nil {
		return &core.FormatError{Section: core.SectionMeta, Reason: err.Error()}
	}
	if got, want := crc32.ChecksumIEEE(b), binary.LittleEndian.Uint32(entry[16:]); got != want {
		return &core.FormatError{Section: core.SectionMeta, Reason: fmt.Sprintf("checksum %#08x != %#08x", got, want)}
	}
	st, err := meta.Decode(append([]byte(nil), b...), rows)
	if err != nil {
		return &core.FormatError{Section: core.SectionMeta, Reason: err.Error()}
	}
	s.meta = st
	return nil
}
