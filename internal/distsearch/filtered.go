package distsearch

import (
	"repro/internal/core"
	"repro/internal/meta"
)

// Filtered fan-out: one predicate compiles into one GLOBAL-id-keyed bitmap,
// and every shard tests its rows against it through its handle's translate
// table — the same plan choice and the same word-at-a-time scan as an
// unsharded index. The per-shard filtered search is the single-index one,
// so the sharded filtered answer is the merge of per-shard filtered answers
// — the same contract the unfiltered fan-out has, through the same Search.
// Shards with zero passing rows are skipped entirely; their workers are
// never scheduled.

// ShardedFilter is one compiled predicate prepared for fan-out: the global
// bitmap plus each shard's passing count, which drives that shard's plan
// independently. Compile once per predicate and reuse across queries; the
// struct is read-only after NewFilter.
type ShardedFilter struct {
	Bits   []uint64 // global-id-keyed passing bitmap (fail-closed past its end)
	Count  int      // total passing rows across all shards
	counts []int
}

// globalBit tests a global id against the bitmap, failing closed out of
// range — the same contract core's bitTest has.
func globalBit(bits []uint64, id int32) bool {
	if id < 0 {
		return false
	}
	w := int(id >> 6)
	if w >= len(bits) {
		return false
	}
	return bits[w]>>(uint(id)&63)&1 != 0
}

// NewFilter prepares a compiled bitmap (global-id keyed, with its total
// passing count) for fan-out serving: one walk over every shard's id map
// counts the shard's passing rows.
func (s *Sharded) NewFilter(bits []uint64, count int) *ShardedFilter {
	sf := &ShardedFilter{Bits: bits, Count: count, counts: make([]int, len(s.handles))}
	for sh, h := range s.handles {
		for _, gid := range h.Translate() {
			if globalBit(bits, gid) {
				sf.counts[sh]++
			}
		}
	}
	return sf
}

// CompileFilter compiles a predicate against the index's global metadata
// store into a ready-to-fan filter. The bitmap is freshly allocated (sized
// and compiled against one consistent store view, so concurrent appends
// cannot fail the compilation), and the result stays valid when the
// predicate scratch is reused.
func (s *Sharded) CompileFilter(p meta.Predicate) (*ShardedFilter, error) {
	if s.Meta == nil {
		return nil, core.ErrNoMetadata
	}
	bits, count, err := s.Meta.CompileAlloc(p)
	if err != nil {
		return nil, err
	}
	return s.NewFilter(bits, count), nil
}
