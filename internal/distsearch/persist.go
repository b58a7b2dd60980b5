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
	"repro/internal/mstore"
	"repro/internal/vecmath"
)

// This file persists a sharded index: a versioned header with the shard
// count, then per shard the id mapping and the shard's NSG. Base vectors
// are not stored (they live in the dataset file, as with core.NSG, or in
// the surrounding nsg.ShardedIndex bundle); Read re-attaches them and
// reconstructs each shard's sub-matrix from the id map.

const (
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

// Write serializes the sharded index (id maps + per-shard NSGs, no base
// vectors) to w. A mapped container has no global base for the caller to
// write beside it, so it refuses with core.ErrReadOnly.
func (s *Sharded) Write(w io.Writer) error {
	if s.ro {
		return fmt.Errorf("distsearch: stream-serializing a mapped container (use WriteMapped): %w", core.ErrReadOnly)
	}
	bw := bufio.NewWriter(w)
	version := uint32(shardedVersion)
	if s.Meta != nil {
		version = shardedVersionMeta
	}
	hdr := make([]byte, 12)
	binary.LittleEndian.PutUint32(hdr[0:], shardedMagic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(s.shards)))
	if _, err := bw.Write(hdr); err != nil {
		return fmt.Errorf("distsearch: write header: %w", err)
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
	// id), same discipline as the nsg vector codec.
	for sh := range s.shards {
		ids := s.localID[sh]
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(ids)))
		if _, err := bw.Write(lenBuf[:]); err != nil {
			return fmt.Errorf("distsearch: write shard size: %w", err)
		}
		if err := chunkio.WriteInt32s(bw, ids); err != nil {
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

// Save writes the sharded index to path, crash-safely (temp file + fsync +
// rename).
func (s *Sharded) Save(path string) error {
	return mstore.WriteFileAtomic(path, s.Write)
}

// Read deserializes a sharded index written by Write and re-attaches the
// base vectors it was built over. The returned index has a running worker
// pool and is ready to serve.
func Read(r io.Reader, base vecmath.Matrix) (*Sharded, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, 12)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("distsearch: read header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != shardedMagic {
		return nil, fmt.Errorf("distsearch: not a sharded NSG file")
	}
	version := binary.LittleEndian.Uint32(hdr[4:])
	if version != shardedVersion && version != shardedVersionMeta {
		return nil, fmt.Errorf("distsearch: unsupported sharded format version %d (want %d or %d)", version, shardedVersion, shardedVersionMeta)
	}
	nShards := int(binary.LittleEndian.Uint32(hdr[8:]))
	if nShards <= 0 || nShards > 1<<16 {
		return nil, fmt.Errorf("distsearch: implausible shard count %d", nShards)
	}
	s := &Sharded{Base: base}
	if version == shardedVersionMeta {
		var flagBuf [8]byte
		if _, err := io.ReadFull(br, flagBuf[:]); err != nil {
			return nil, fmt.Errorf("distsearch: read flags: %w", err)
		}
		flags := binary.LittleEndian.Uint32(flagBuf[0:])
		if flags&^uint32(shardedFlagMeta) != 0 {
			return nil, fmt.Errorf("distsearch: unsupported sharded flags %#x", flags)
		}
		size := int(binary.LittleEndian.Uint32(flagBuf[4:]))
		if flags&shardedFlagMeta != 0 {
			if size <= 0 || size > maxShardedMetaBlob {
				return nil, fmt.Errorf("distsearch: implausible metadata blob size %d", size)
			}
			blob := make([]byte, size)
			if _, err := io.ReadFull(br, blob); err != nil {
				return nil, fmt.Errorf("distsearch: read metadata: %w", err)
			}
			st, err := meta.Decode(blob, base.Rows)
			if err != nil {
				return nil, fmt.Errorf("distsearch: metadata: %w", err)
			}
			s.Meta = st
		} else if size != 0 {
			return nil, fmt.Errorf("distsearch: metadata size %d with flag unset", size)
		}
	}
	covered := 0
	for sh := 0; sh < nShards; sh++ {
		var buf [4]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("distsearch: read shard %d size: %w", sh, err)
		}
		size := int(binary.LittleEndian.Uint32(buf[:]))
		if size <= 0 || size > base.Rows {
			return nil, fmt.Errorf("distsearch: shard %d has implausible size %d", sh, size)
		}
		ids := make([]int32, size)
		if err := chunkio.ReadInt32s(br, ids); err != nil {
			return nil, fmt.Errorf("distsearch: read shard %d ids: %w", sh, err)
		}
		sub := vecmath.NewMatrix(size, base.Dim)
		for j, id := range ids {
			if id < 0 || int(id) >= base.Rows {
				return nil, fmt.Errorf("distsearch: shard %d id %d out of range", sh, id)
			}
			copy(sub.Row(j), base.Row(int(id)))
		}
		idx, err := core.ReadNSG(br, sub)
		if err != nil {
			return nil, fmt.Errorf("distsearch: shard %d: %w", sh, err)
		}
		s.shards = append(s.shards, idx)
		s.localID = append(s.localID, ids)
		covered += size
	}
	if covered != base.Rows {
		return nil, fmt.Errorf("distsearch: shards cover %d of %d base vectors", covered, base.Rows)
	}
	s.start()
	return s, nil
}

// Load reads a sharded index from path and re-attaches the base vectors it
// was built over.
func Load(path string, base vecmath.Matrix) (*Sharded, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("distsearch: %w", err)
	}
	defer f.Close()
	return Read(f, base)
}
