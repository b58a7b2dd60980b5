package distsearch

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"

	"repro/internal/chunkio"
	"repro/internal/core"
	"repro/internal/meta"
	"repro/internal/vecmath"
)

// This file persists a sharded index as one stream bundle ("NSGD"): a
// versioned header with the shape and the caller's options blob, the
// vectors in global-id order, then the shard section ("NSGT") — its own
// versioned header with the shard count and the optional global metadata
// blob, then per shard the id map and the shard's NSG. The only shard of a
// one-shard index stores an empty id map, which means the identity. Read
// copies each shard's rows out of the vector section by its id map (a
// one-shard index keeps the section as its rows), so the loaded index,
// like a built one, keeps every vector in its shards only.

const (
	// legacyMagic is "NSGB", the one-index bundle written before every
	// index saved NSGD: its shape, the vectors in public id order, then one
	// NSG record carrying the metadata store. Read still accepts it.
	legacyMagic = 0x4e534742

	// bundleMagic is "NSGD". Version 2 appends the options flags word to
	// the four option words of version 1, which predates quantization; Read
	// accepts both.
	bundleMagic     = 0x4e534744
	bundleVersion   = 2
	bundleVersionV1 = 1
	// OptionsSize is the size of the options blob a bundle carries verbatim
	// (the public layer's per-shard build options). A version-1 blob is
	// four bytes shorter; Read pads it with a zero flags word.
	OptionsSize = 20

	// shardedMagic is "NSGT", deliberately distinct from the v1 magic
	// ("NSGS", PR <= 2): v1 headers had the shard count where v2 keeps the
	// version field, so reusing the magic would let a 2-shard v1 file
	// alias as a version-2 header and misparse. A fresh magic rejects
	// every v1 file at the first check.
	shardedMagic   = 0x4e534754
	shardedVersion = 2
	// shardedVersionMeta extends v2 with a flags word and an optional
	// global metadata blob between the header and the shard sections.
	// Files without metadata are still written as plain v2, so older
	// readers only reject files that actually carry the new section.
	shardedVersionMeta = 3
	shardedFlagMeta    = 1 << 0
	maxShardedMetaBlob = 1 << 30
)

// Write serializes the sharded index as one bundle, heap or mapped alike.
// opts is the options blob (OptionsSize bytes) Read hands back. Stop
// issuing Inserts and Flush first, so the shards' id maps cover every row.
func (s *Sharded) Write(w io.Writer, opts []byte) error {
	if len(opts) != OptionsSize {
		return fmt.Errorf("distsearch: options blob of %d bytes, want %d", len(opts), OptionsSize)
	}
	ids, rows := s.idMaps()
	bw := bufio.NewWriter(w)
	hdr := make([]byte, 16, 16+OptionsSize)
	binary.LittleEndian.PutUint32(hdr[0:], bundleMagic)
	binary.LittleEndian.PutUint32(hdr[4:], bundleVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(rows))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(s.dim))
	if _, err := bw.Write(append(hdr, opts...)); err != nil {
		return fmt.Errorf("distsearch: write header: %w", err)
	}
	// The vectors, in global-id order, gathered row by row from the shards.
	if err := chunkio.WriteRows(bw, rows, s.VectorByID); err != nil {
		return fmt.Errorf("distsearch: write vectors: %w", err)
	}

	version := uint32(shardedVersion)
	if s.Meta != nil {
		version = shardedVersionMeta
	}
	hdr = hdr[:12]
	binary.LittleEndian.PutUint32(hdr[0:], shardedMagic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(s.shards)))
	if _, err := bw.Write(hdr); err != nil {
		return fmt.Errorf("distsearch: write shard header: %w", err)
	}
	if s.Meta != nil {
		// One global blob (the store is global-id keyed); the per-shard NSG
		// records below stay metadata-free.
		var flagBuf [8]byte
		blob := s.Meta.AppendEncode(nil)
		binary.LittleEndian.PutUint32(flagBuf[0:], shardedFlagMeta)
		binary.LittleEndian.PutUint32(flagBuf[4:], uint32(len(blob)))
		if _, err := bw.Write(flagBuf[:]); err != nil {
			return fmt.Errorf("distsearch: write flags: %w", err)
		}
		if _, err := bw.Write(blob); err != nil {
			return fmt.Errorf("distsearch: write metadata: %w", err)
		}
	}
	// Id maps go through the shared chunked codec (not a 4-byte write per
	// id), same discipline as the vector codec.
	for sh := range s.shards {
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(ids[sh])))
		if _, err := bw.Write(lenBuf[:]); err != nil {
			return fmt.Errorf("distsearch: write shard size: %w", err)
		}
		if err := chunkio.WriteInt32s(bw, ids[sh]); err != nil {
			return fmt.Errorf("distsearch: write id map: %w", err)
		}
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("distsearch: %w", err)
		}
		if err := s.shards[sh].Write(w); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// idMaps returns every shard's id map (its handle's translate table: nil,
// the identity, for the only shard of a one-shard index) and the rows they
// cover.
func (s *Sharded) idMaps() ([][]int32, int) {
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

// Read deserializes a bundle written by Write, or a legacy NSGB bundle, and
// returns the index with a running worker pool, ready to serve, plus the
// options blob (OptionsSize bytes; nil for an NSGB bundle, which keeps
// none). Id maps that do not partition the rows are an error. When r has a
// Stat method (an *os.File), the header's shape is bounded by the file size
// before the vectors are allocated.
func Read(r io.Reader) (*Sharded, []byte, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, 16+OptionsSize)
	if _, err := io.ReadFull(br, hdr[:12]); err != nil {
		return nil, nil, fmt.Errorf("distsearch: read header: %w", err)
	}
	shape, opts := hdr[4:12], []byte(nil)
	switch binary.LittleEndian.Uint32(hdr[0:]) {
	case legacyMagic:
	case bundleMagic:
		optsLen := OptionsSize
		switch v := binary.LittleEndian.Uint32(hdr[4:]); v {
		case bundleVersionV1:
			optsLen -= 4 // no flags word; it reads as zero
		case bundleVersion:
		default:
			return nil, nil, fmt.Errorf("distsearch: unsupported sharded bundle version %d (want <= %d)", v, bundleVersion)
		}
		if _, err := io.ReadFull(br, hdr[12:16+optsLen]); err != nil {
			return nil, nil, fmt.Errorf("distsearch: read options: %w", err)
		}
		shape, opts = hdr[8:16], hdr[16:]
	default:
		return nil, nil, fmt.Errorf("distsearch: not an NSG bundle")
	}
	rows := int(binary.LittleEndian.Uint32(shape[0:]))
	dim := int(binary.LittleEndian.Uint32(shape[4:]))
	if rows <= 0 || dim <= 0 || rows > 1<<30 || dim > 1<<20 {
		return nil, nil, fmt.Errorf("distsearch: implausible shape %dx%d", rows, dim)
	}
	// A corrupt header must not turn into a giant allocation.
	if f, ok := r.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if fi, err := f.Stat(); err == nil && fi.Size() < int64(rows)*int64(dim)*4 {
			return nil, nil, fmt.Errorf("distsearch: file holds %d bytes, too small for claimed %dx%d vectors", fi.Size(), rows, dim)
		}
	}
	// The vectors in global-id order: copied into the shards below, then
	// dropped.
	base := vecmath.NewMatrix(rows, dim)
	if err := chunkio.ReadFloat32s(br, base.Data); err != nil {
		return nil, nil, fmt.Errorf("distsearch: truncated vectors: %w", err)
	}
	if opts == nil {
		idx, err := core.ReadNSG(br, base)
		if err != nil {
			return nil, nil, err
		}
		return single(idx), nil, nil
	}
	s, ids, err := readShards(br, base)
	if err != nil {
		return nil, nil, err
	}
	if err := s.start(ids, rows); err != nil {
		return nil, nil, fmt.Errorf("distsearch: %w", err)
	}
	return s, opts, nil
}

// readShards reads the shard section of a bundle whose vectors are base:
// the metadata blob and, per shard, its id map and NSG over the rows the
// map names. It returns the index, not yet started, and its id maps.
func readShards(br *bufio.Reader, base vecmath.Matrix) (*Sharded, [][]int32, error) {
	hdr := make([]byte, 12)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, nil, fmt.Errorf("distsearch: read shard header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != shardedMagic {
		return nil, nil, fmt.Errorf("distsearch: not a sharded NSG file")
	}
	version := binary.LittleEndian.Uint32(hdr[4:])
	if version != shardedVersion && version != shardedVersionMeta {
		return nil, nil, fmt.Errorf("distsearch: unsupported sharded format version %d (want %d or %d)", version, shardedVersion, shardedVersionMeta)
	}
	nShards := int(binary.LittleEndian.Uint32(hdr[8:]))
	if nShards <= 0 || nShards > 1<<16 {
		return nil, nil, fmt.Errorf("distsearch: implausible shard count %d", nShards)
	}
	s := &Sharded{dim: base.Dim}
	if version == shardedVersionMeta {
		var flagBuf [8]byte
		if _, err := io.ReadFull(br, flagBuf[:]); err != nil {
			return nil, nil, fmt.Errorf("distsearch: read flags: %w", err)
		}
		flags := binary.LittleEndian.Uint32(flagBuf[0:])
		if flags&^uint32(shardedFlagMeta) != 0 {
			return nil, nil, fmt.Errorf("distsearch: unsupported sharded flags %#x", flags)
		}
		size := int(binary.LittleEndian.Uint32(flagBuf[4:]))
		if flags&shardedFlagMeta != 0 {
			if size <= 0 || size > maxShardedMetaBlob {
				return nil, nil, fmt.Errorf("distsearch: implausible metadata blob size %d", size)
			}
			blob := make([]byte, size)
			if _, err := io.ReadFull(br, blob); err != nil {
				return nil, nil, fmt.Errorf("distsearch: read metadata: %w", err)
			}
			st, err := meta.Decode(blob, base.Rows)
			if err != nil {
				return nil, nil, fmt.Errorf("distsearch: metadata: %w", err)
			}
			s.Meta = st
		} else if size != 0 {
			return nil, nil, fmt.Errorf("distsearch: metadata size %d with flag unset", size)
		}
	}
	var maps [][]int32
	for sh := 0; sh < nShards; sh++ {
		var buf [4]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, nil, fmt.Errorf("distsearch: read shard %d size: %w", sh, err)
		}
		// An empty id map is the identity, which only the only shard of an
		// index can hold: its rows are the vector section as it stands.
		size := int(binary.LittleEndian.Uint32(buf[:]))
		sub, ids := base, []int32(nil)
		if size != 0 || nShards != 1 {
			if size <= 0 || size > base.Rows {
				return nil, nil, fmt.Errorf("distsearch: shard %d has implausible size %d", sh, size)
			}
			ids = make([]int32, size)
			if err := chunkio.ReadInt32s(br, ids); err != nil {
				return nil, nil, fmt.Errorf("distsearch: read shard %d ids: %w", sh, err)
			}
			sub = vecmath.NewMatrix(size, base.Dim)
			for j, id := range ids {
				if id < 0 || int(id) >= base.Rows {
					return nil, nil, fmt.Errorf("distsearch: shard %d id %d out of range", sh, id)
				}
				copy(sub.Row(j), base.Row(int(id)))
			}
		}
		idx, err := core.ReadNSG(br, sub)
		if err != nil {
			return nil, nil, fmt.Errorf("distsearch: shard %d: %w", sh, err)
		}
		s.shards = append(s.shards, idx)
		maps = append(maps, ids)
	}
	return s, maps, nil
}
