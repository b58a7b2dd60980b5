package distsearch

import (
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"repro/internal/chunkio"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/mstore"
)

// This file is the sharded twin of core's NSGM record: one aligned
// container holding, per shard, its global-id map and a complete embedded
// NSGM record (adjacency + vectors + remap + codes). OpenMappedSharded
// serves every shard zero-copy out of a single mapping, so a multi-shard
// restart costs one file open instead of one decode per shard. As on the
// heap, each shard's vectors live only in its record, and the id maps
// become the handles' translate tables and the locator.

const (
	// shardedMappedMagic is "NSMS" — distinct from every stream magic so
	// each reader rejects the other family at the first word.
	shardedMappedMagic   = 0x4e534d53
	shardedMappedVersion = 1

	smHeaderSize     = 64
	smShardEntrySize = 40
	// MappedMetaSize is the capacity of the container's opaque metadata
	// blob, which the public layer uses to persist its build options.
	MappedMetaSize = 32
	smAlign        = 64
)

func smAlignUp(n int64) int64 { return (n + smAlign - 1) &^ (smAlign - 1) }

// MappedSize returns the exact container size WriteMapped will produce.
func (s *Sharded) MappedSize() int64 {
	off := smAlignUp(int64(smHeaderSize + len(s.shards)*smShardEntrySize + 4))
	ids, _ := s.idMaps()
	for sh, m := range ids {
		off = smAlignUp(off + int64(len(m))*4)
		off += s.shards[sh].MappedSize()
	}
	return off
}

// WriteMapped serializes the sharded index as one aligned container. meta
// is an opaque blob (at most MappedMetaSize bytes, zero-padded) returned
// verbatim by Meta after open; the public layer stores its options there.
func (s *Sharded) WriteMapped(w io.Writer, meta []byte) error {
	if len(meta) > MappedMetaSize {
		return fmt.Errorf("distsearch: mapped meta %d bytes exceeds %d", len(meta), MappedMetaSize)
	}
	if len(s.shards) == 0 {
		return fmt.Errorf("distsearch: cannot persist an empty sharded index")
	}
	nShards := len(s.shards)
	ids, rows := s.idMaps()

	// Lay out: header, shard table, table checksum, then per shard the
	// aligned id map and the aligned embedded record.
	type entry struct {
		idmapOff, idmapLen int64
		recOff, recLen     int64
		idmapCRC           uint32
	}
	slots := make([]entry, nShards)
	off := smAlignUp(int64(smHeaderSize + nShards*smShardEntrySize + 4))
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
	fileSize := off

	head := make([]byte, smHeaderSize+nShards*smShardEntrySize+4)
	le32 := func(o int, v uint32) {
		head[o] = byte(v)
		head[o+1] = byte(v >> 8)
		head[o+2] = byte(v >> 16)
		head[o+3] = byte(v >> 24)
	}
	le64 := func(o int, v uint64) { le32(o, uint32(v)); le32(o+4, uint32(v>>32)) }
	le32(0, shardedMappedMagic)
	le32(4, shardedMappedVersion)
	le32(8, uint32(nShards))
	le32(12, uint32(rows))
	le32(16, uint32(s.dim))
	le64(24, uint64(fileSize))
	copy(head[32:smHeaderSize], meta)
	for sh, sl := range slots {
		base := smHeaderSize + sh*smShardEntrySize
		le64(base, uint64(sl.idmapOff))
		le64(base+8, uint64(sl.idmapLen))
		le64(base+16, uint64(sl.recOff))
		le64(base+24, uint64(sl.recLen))
		le32(base+32, sl.idmapCRC)
	}
	crcAt := smHeaderSize + nShards*smShardEntrySize
	le32(crcAt, crc32.ChecksumIEEE(head[:crcAt]))
	if _, err := w.Write(head); err != nil {
		return fmt.Errorf("distsearch: write mapped header: %w", err)
	}

	pos := int64(len(head))
	var pad [smAlign]byte
	for sh, sl := range slots {
		if _, err := w.Write(pad[:sl.idmapOff-pos]); err != nil {
			return fmt.Errorf("distsearch: write padding: %w", err)
		}
		if err := chunkio.WriteInt32s(w, ids[sh]); err != nil {
			return fmt.Errorf("distsearch: write shard %d id map: %w", sh, err)
		}
		pos = sl.idmapOff + sl.idmapLen
		if _, err := w.Write(pad[:sl.recOff-pos]); err != nil {
			return fmt.Errorf("distsearch: write padding: %w", err)
		}
		if err := s.shards[sh].WriteMapped(w); err != nil {
			return fmt.Errorf("distsearch: write shard %d record: %w", sh, err)
		}
		pos = sl.recOff + sl.recLen
	}
	return nil
}

// SaveMapped writes the aligned container to path, crash-safely.
func (s *Sharded) SaveMapped(path string, meta []byte) error {
	return mstore.WriteFileAtomic(path, func(w io.Writer) error {
		return s.WriteMapped(w, meta)
	})
}

func smCorrupt(format string, args ...any) error {
	return &core.FormatError{Section: core.SectionHeader, Reason: fmt.Sprintf(format, args...)}
}

// OpenMappedSharded opens a container written by SaveMapped and serves all
// shards from the mapping. The returned index is read-only: Insert reports
// the condition, while searches, the worker pool and Write behave exactly
// as on a loaded index. Close releases the mapping; meta is the blob passed
// to SaveMapped.
func OpenMappedSharded(path string, opts core.MapOptions) (*Sharded, []byte, error) {
	f, err := mstore.Open(path)
	if err != nil {
		return nil, nil, err
	}
	s, meta, err := openMappedSharded(f, opts)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return s, meta, nil
}

func openMappedSharded(f *mstore.File, opts core.MapOptions) (*Sharded, []byte, error) {
	if f.Size() < smHeaderSize+smShardEntrySize+4 {
		return nil, nil, smCorrupt("file of %d bytes is smaller than any container", f.Size())
	}
	hdr, err := f.Bytes(0, smHeaderSize)
	if err != nil {
		return nil, nil, smCorrupt("%v", err)
	}
	u32 := func(b []byte, o int) uint32 {
		return uint32(b[o]) | uint32(b[o+1])<<8 | uint32(b[o+2])<<16 | uint32(b[o+3])<<24
	}
	u64 := func(b []byte, o int) uint64 { return uint64(u32(b, o)) | uint64(u32(b, o+4))<<32 }
	if u32(hdr, 0) != shardedMappedMagic {
		return nil, nil, smCorrupt("bad container magic %#08x", u32(hdr, 0))
	}
	if v := u32(hdr, 4); v != shardedMappedVersion {
		return nil, nil, smCorrupt("unsupported container version %d", v)
	}
	nShards := int(u32(hdr, 8))
	rows := int(u32(hdr, 12))
	dim := int(u32(hdr, 16))
	fileSize := int64(u64(hdr, 24))
	if nShards <= 0 || nShards > 1<<16 {
		return nil, nil, smCorrupt("implausible shard count %d", nShards)
	}
	if rows <= 0 || dim <= 0 {
		return nil, nil, smCorrupt("implausible geometry %d rows x %d dims", rows, dim)
	}
	if fileSize != f.Size() {
		return nil, nil, smCorrupt("header says %d bytes, file has %d (truncated or trailing garbage)", fileSize, f.Size())
	}
	meta := append([]byte(nil), hdr[32:smHeaderSize]...)

	tableLen := int64(nShards*smShardEntrySize) + 4
	table, err := f.Bytes(smHeaderSize, tableLen)
	if err != nil {
		return nil, nil, smCorrupt("shard table: %v", err)
	}
	crcHere := crc32.NewIEEE()
	crcHere.Write(hdr)
	crcHere.Write(table[:len(table)-4])
	if got := u32(table, len(table)-4); got != crcHere.Sum32() {
		return nil, nil, smCorrupt("shard table checksum %#08x != %#08x", got, crcHere.Sum32())
	}

	s := &Sharded{dim: dim}
	var maps [][]int32
	for sh := 0; sh < nShards; sh++ {
		base := sh * smShardEntrySize
		idmapOff := int64(u64(table, base))
		idmapLen := int64(u64(table, base+8))
		recOff := int64(u64(table, base+16))
		recLen := int64(u64(table, base+24))
		idmapCRC := u32(table, base+32)
		if idmapLen <= 0 || idmapLen%4 != 0 || idmapOff%smAlign != 0 ||
			idmapOff < smHeaderSize+tableLen || idmapOff+idmapLen > fileSize {
			return nil, nil, smCorrupt("shard %d id map [%d,%d) invalid", sh, idmapOff, idmapOff+idmapLen)
		}
		idmapBytes, err := f.Bytes(idmapOff, idmapLen)
		if err != nil {
			return nil, nil, smCorrupt("shard %d id map: %v", sh, err)
		}
		// Id maps are always fully validated (checksum here, the partition
		// in start): they are tiny next to the vector slabs and a bad entry
		// would surface as a wrong result id, not a crash — the worst
		// failure mode to ship silently.
		if got := crc32.ChecksumIEEE(idmapBytes); got != idmapCRC {
			return nil, nil, smCorrupt("shard %d id map checksum %#08x != %#08x", sh, got, idmapCRC)
		}
		ids := mstore.Int32s(idmapBytes)
		idx, consumed, err := core.OpenMappedAt(f, recOff, recLen, opts, true)
		if err != nil {
			return nil, nil, fmt.Errorf("distsearch: shard %d: %w", sh, err)
		}
		if consumed != recLen {
			return nil, nil, smCorrupt("shard %d record consumed %d of %d bytes", sh, consumed, recLen)
		}
		if idx.Base.Rows != len(ids) || idx.Base.Dim != dim {
			return nil, nil, smCorrupt("shard %d record is %dx%d, id map and container imply %dx%d",
				sh, idx.Base.Rows, idx.Base.Dim, len(ids), dim)
		}
		s.shards = append(s.shards, idx)
		maps = append(maps, ids)
	}
	if err := s.start(maps, rows); err != nil {
		return nil, nil, smCorrupt("%v", err)
	}
	s.mapped = f
	return s, meta, nil
}

// ReadOnly reports whether the index serves from a mapping.
func (s *Sharded) ReadOnly() bool { return s.shards[0].ReadOnly() }

// PromoteToHeap turns a mapped index into an ordinary mutable one: each
// shard's slabs are copied to the heap, fresh handles take over with the
// old ones' tombstones, cadence and id maps (copied out of the mapping),
// and then the mapping is released. Search results are unchanged. A no-op
// on a heap index; must not run concurrently with other calls.
func (s *Sharded) PromoteToHeap() error {
	if !s.ReadOnly() {
		return nil
	}
	for sh, idx := range s.shards {
		old := s.handles[sh]
		if err := idx.PromoteToHeap(); err != nil {
			return err
		}
		s.handles[sh] = live.New(idx, slices.Clone(old.Translate()), old.Dead(), old.Options())
	}
	if s.mapped != nil {
		s.mapped.Close()
		s.mapped = nil
	}
	return nil
}
