package distsearch

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/chunkio"
	"repro/internal/core"
	"repro/internal/meta"
	"repro/internal/vecmath"
)

// This file loads an index file. Save writes the mapped container (see
// mapped.go), and Load opens it as OpenMapped does and promotes it to the
// heap. Older builds wrote a stream bundle ("NSGD"), which Load still
// decodes: a versioned header with the shape and the index's FileOptions,
// the vectors in global-id order, then the shard section ("NSGT") — its
// own versioned header with the shard count and the optional global
// metadata blob, then per shard the id map and the shard's NSG. The only
// shard of a one-shard index stores an empty id map, which means the
// identity. The stream load copies each shard's rows out of the vector
// section by its id map (a one-shard index keeps the section as its rows),
// so the loaded index, like a built one, keeps every vector in its shards
// only. The file also holds the options codec both layouts share.

// FileOptions are the build options a file keeps beside its index: the
// public layer's per-shard GraphK, BuildL, MaxDegree and SearchL, and
// whether the shards serve SQ8 codes. A zero field means the caller's
// default.
type FileOptions struct {
	GraphK, BuildL, MaxDegree, SearchL int
	Quantize                           bool
}

// The options blob both formats carry: the four option words, then the
// flags word.
const (
	optionsSize = 20
	optQuantize = 1 << 0
	// optInt4 is reserved. Set beside optQuantize it marked the int4 path,
	// which was removed; decodeOptions rejects it as an unknown bit, and it
	// must not be reused, so an old int4 bundle is never misread.
	optInt4 = 1 << 1
)

func (o FileOptions) encode() []byte {
	blob := make([]byte, optionsSize)
	for i, v := range []int{o.GraphK, o.BuildL, o.MaxDegree, o.SearchL} {
		binary.LittleEndian.PutUint32(blob[4*i:], uint32(v))
	}
	if o.Quantize {
		binary.LittleEndian.PutUint32(blob[16:], optQuantize)
	}
	return blob
}

// decodeOptions is the inverse of encode. A flags word with any bit it
// does not know, the reserved optInt4 among them, is an error.
func decodeOptions(blob []byte) (FileOptions, error) {
	u := func(i int) int { return int(binary.LittleEndian.Uint32(blob[4*i:])) }
	flags := uint32(u(4))
	if flags&^optQuantize != 0 {
		return FileOptions{}, fmt.Errorf("unsupported option flags %#x", flags)
	}
	return FileOptions{GraphK: u(0), BuildL: u(1), MaxDegree: u(2), SearchL: u(3), Quantize: flags&optQuantize != 0}, nil
}

const (
	// legacyMagic is "NSGB", the one-index bundle written before every
	// index saved the sharded layouts: its shape, the vectors in public id
	// order, then one NSG record carrying the metadata store. Load still
	// accepts it.
	legacyMagic = 0x4e534742

	// bundleMagic is "NSGD". Version 2 appends the options flags word to
	// the four option words of version 1, which predates quantization; Load
	// accepts both, reading a missing flags word as zero.
	bundleMagic     = 0x4e534744
	bundleVersion   = 2
	bundleVersionV1 = 1

	// shardedMagic is "NSGT", deliberately distinct from the v1 magic
	// ("NSGS", PR <= 2): v1 headers had the shard count where v2 keeps the
	// version field, so reusing the magic would let a 2-shard v1 file
	// alias as a version-2 header and misparse. A fresh magic rejects
	// every v1 file at the first check.
	shardedMagic   = 0x4e534754
	shardedVersion = 2
	// shardedVersionMeta extends v2 with a flags word and an optional
	// global metadata blob between the header and the shard sections.
	// Files without metadata were written as plain v2, so older readers
	// only rejected files that actually carried the new section.
	shardedVersionMeta = 3
	shardedFlagMeta    = 1 << 0
	maxShardedMetaBlob = 1 << 30
)

// Load reads the file Save wrote to path and returns the index on the heap,
// mutable, with a running worker pool, plus its options. The container is
// opened with its checksums verified, so a damaged file fails with a
// *core.FormatError, and then promoted: the index keeps no mapping. A
// stream bundle from an older build (NSGD, or a one-index NSGB) is decoded
// by loadStream.
func Load(path string) (*Sharded, FileOptions, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, FileOptions{}, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	if magic, err := br.Peek(4); err == nil {
		switch binary.LittleEndian.Uint32(magic) {
		case bundleMagic, legacyMagic:
			return loadStream(f, br)
		}
	}
	s, opts, err := OpenMapped(path, core.MapOptions{})
	if err != nil {
		return nil, FileOptions{}, err
	}
	s.PromoteToHeap()
	return s, opts, nil
}

// loadStream decodes the stream bundle br reads from f, or a legacy NSGB
// bundle (whose options, which it kept none of, single derives). Id maps
// that do not partition the rows are an error, and the header's shape is
// bounded by the file size before the vectors are allocated.
func loadStream(f *os.File, br *bufio.Reader) (*Sharded, FileOptions, error) {
	var none FileOptions
	hdr := make([]byte, 16+optionsSize)
	if _, err := io.ReadFull(br, hdr[:12]); err != nil {
		return nil, none, fmt.Errorf("distsearch: read header: %w", err)
	}
	shape, legacy := hdr[4:12], true
	var opts FileOptions
	switch binary.LittleEndian.Uint32(hdr[0:]) {
	case legacyMagic:
	case bundleMagic:
		optsLen := optionsSize
		switch v := binary.LittleEndian.Uint32(hdr[4:]); v {
		case bundleVersionV1:
			optsLen -= 4 // no flags word; it reads as zero
		case bundleVersion:
		default:
			return nil, none, fmt.Errorf("distsearch: unsupported sharded bundle version %d (want <= %d)", v, bundleVersion)
		}
		if _, err := io.ReadFull(br, hdr[12:16+optsLen]); err != nil {
			return nil, none, fmt.Errorf("distsearch: read options: %w", err)
		}
		var err error
		if opts, err = decodeOptions(hdr[16:]); err != nil {
			return nil, none, fmt.Errorf("distsearch: %w", err)
		}
		shape, legacy = hdr[8:16], false
	default:
		return nil, none, fmt.Errorf("distsearch: not an NSG bundle")
	}
	rows := int(binary.LittleEndian.Uint32(shape[0:]))
	dim := int(binary.LittleEndian.Uint32(shape[4:]))
	if rows <= 0 || dim <= 0 || rows > 1<<30 || dim > 1<<20 {
		return nil, none, fmt.Errorf("distsearch: implausible shape %dx%d", rows, dim)
	}
	// A corrupt header must not turn into a giant allocation.
	if fi, err := f.Stat(); err == nil && fi.Size() < int64(rows)*int64(dim)*4 {
		return nil, none, fmt.Errorf("distsearch: file holds %d bytes, too small for claimed %dx%d vectors", fi.Size(), rows, dim)
	}
	// The vectors in global-id order: copied into the shards below, then
	// dropped.
	base := vecmath.NewMatrix(rows, dim)
	if err := chunkio.ReadFloat32s(br, base.Data); err != nil {
		return nil, none, fmt.Errorf("distsearch: truncated vectors: %w", err)
	}
	if legacy {
		idx, metaBlob, err := core.ReadNSG(br, base)
		if err != nil {
			return nil, none, err
		}
		s, opts, err := single(idx, metaBlob)
		if err != nil {
			return nil, none, fmt.Errorf("distsearch: metadata: %w", err)
		}
		return s, opts, nil
	}
	s, ids, err := readShards(br, base)
	if err != nil {
		return nil, none, err
	}
	if err := s.start(ids, rows); err != nil {
		return nil, none, fmt.Errorf("distsearch: %w", err)
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
		idx, metaBlob, err := core.ReadNSG(br, sub)
		if err != nil {
			return nil, nil, fmt.Errorf("distsearch: shard %d: %w", sh, err)
		}
		if metaBlob != nil {
			return nil, nil, fmt.Errorf("distsearch: shard %d record carries a metadata section", sh)
		}
		s.shards = append(s.shards, idx)
		maps = append(maps, ids)
	}
	return s, maps, nil
}
