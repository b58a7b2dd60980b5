package distsearch

import (
	"encoding/binary"
	"fmt"
)

// This file holds the options codec an index file carries beside its
// shards. Save writes them into the container's header (see mapped.go),
// and OpenMapped hands them back.

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
