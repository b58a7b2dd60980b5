package distsearch

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/live"
)

// This file loads an index file and holds the options codec the file
// carries. Save writes the mapped container (see mapped.go), and Load opens
// it as OpenMapped does and copies it to the heap. The layouts older
// builds wrote are refused at their first word (see openMapped).

// FileOptions are the build options a file keeps beside its index: the
// public layer's per-shard GraphK, BuildL, MaxDegree and SearchL, and
// whether the shards serve SQ8 codes. A zero field means the caller's
// default.
type FileOptions struct {
	GraphK, BuildL, MaxDegree, SearchL int
	Quantize                           bool
}

// The options blob the container's header carries: the four option words,
// then the flags word.
const (
	optionsSize = 20
	optQuantize = 1 << 0
	// optInt4 is reserved. Set beside optQuantize it marked the int4 path,
	// which was removed; decodeOptions rejects it as an unknown bit, and it
	// must not be reused, so an old int4 file is never misread.
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

// Load reads the file Save wrote to path and returns the index on the heap,
// with a running worker pool, plus its options. The file is opened as
// OpenMapped opens it, its checksums verified, so a damaged file fails with
// a *core.FormatError, and then copied: the index keeps no mapping.
func Load(path string) (*Sharded, FileOptions, error) {
	s, opts, err := OpenMapped(path, core.MapOptions{})
	if err != nil {
		return nil, FileOptions{}, err
	}
	for sh, idx := range s.shards {
		idx.CopyToHeap()
		// A fresh handle serves the copy, with the id map copied too.
		s.handles[sh] = live.New(idx, slices.Clone(s.handles[sh].Translate()), nil, live.Options{})
	}
	s.mapped.Close()
	s.mapped = nil
	return s, opts, nil
}
