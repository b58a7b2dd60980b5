package distsearch

import (
	"repro/internal/core"
	"repro/internal/meta"
)

// Filtered fan-out: one predicate compiles into one GLOBAL-id-keyed bitmap,
// which NewFilter cuts into one shard-local bitmap per shard, so every shard
// searches under its own rows' bits exactly as an unsharded index does — the
// same plan choice, the same word-at-a-time scan. The per-shard filtered
// search is the single-index one, so the sharded filtered answer is the
// merge of per-shard filtered answers — the same contract the unfiltered
// fan-out has, through the same Search. Shards with zero passing rows are
// skipped entirely; their workers are never scheduled.

// ShardedFilter is one compiled predicate prepared for fan-out: the global
// bitmap plus a per-shard core.Filter holding that shard's rows' bits and
// passing count (which drives each shard's plan independently). Compile
// once per predicate and reuse across queries; the struct is read-only
// after NewFilter.
type ShardedFilter struct {
	Bits  []uint64 // global-id-keyed passing bitmap (fail-closed past its end)
	Count int      // total passing rows across all shards
	per   []core.Filter
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
// tests each local row's global bit once, writing the shard-local bitmap
// and taking the shard's count as it goes. Rows a shard gains afterwards
// lie past its local bitmap and fail closed, as they do on an unsharded
// index. A live shard does not read its local bitmap (see fanScratch.run):
// its handle tests rows against the global one, so there the counts only
// tune the per-shard plan.
func (s *Sharded) NewFilter(bits []uint64, count int) *ShardedFilter {
	sf := &ShardedFilter{Bits: bits, Count: count, per: make([]core.Filter, len(s.shards))}
	for sh, ids := range s.localID {
		local := make([]uint64, meta.BitsLen(len(ids)))
		n := 0
		for i, gid := range ids {
			if globalBit(bits, gid) {
				local[i>>6] |= 1 << uint(i&63)
				n++
			}
		}
		sf.per[sh] = core.Filter{Bits: local, Count: n}
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
