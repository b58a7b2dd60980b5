package distsearch

import (
	"errors"
	"math/bits"

	"repro/internal/core"
	"repro/internal/meta"
)

// Filtered fan-out: one predicate compiles into one GLOBAL-id-keyed bitmap,
// which NewFilter scatters into one bitmap per shard keyed by the shard's
// own ids — the id space a shard's pass test works in — so every shard runs
// the same plan choice and the same word-at-a-time scan as an unsharded
// index. The per-shard filtered search is the single-index one, so the
// sharded filtered answer is the merge of per-shard filtered answers — the
// same contract the unfiltered fan-out has, through the same Search. Shards
// with zero passing rows are skipped entirely; their workers are never
// scheduled.

// ErrNoMetadata is returned when a predicate is compiled against an index
// that carries no metadata column store.
var ErrNoMetadata = errors.New("core: index has no metadata store")

// ShardedFilter is one compiled predicate prepared for fan-out: the global
// bitmap, and per shard its bitmap in the shard's ids with its passing
// count, which drives that shard's plan independently. Compile once per
// predicate and reuse across queries; the struct is read-only after
// NewFilter.
type ShardedFilter struct {
	Bits   []uint64 // global-id-keyed passing bitmap (fail-closed past its end)
	Count  int      // total passing rows across all shards
	shards []core.Filter
}

// NewFilter prepares a compiled bitmap (global-id keyed, with its total
// passing count) for fan-out serving: its set bits are scattered through
// the locator into one bitmap per shard, and the per-shard counts fall out
// of the scatter, so the cost follows the passing rows. A shard that keeps
// no translate table (the only shard of a one-shard index) shares the
// global bitmap as it is.
func (s *Sharded) NewFilter(set []uint64, count int) *ShardedFilter {
	sf := &ShardedFilter{Bits: set, Count: count, shards: make([]core.Filter, len(s.handles))}
	if len(s.handles) == 1 && s.handles[0].Translate() == nil {
		sf.shards[0] = core.Filter{Bits: set, Count: count}
		return sf
	}
	// Located rows never move, so the locator read under mu stays valid;
	// every local id it holds is below its shard's Len read with it.
	s.mu.Lock()
	loc := s.loc
	for sh, h := range s.handles {
		sf.shards[sh].Bits = make([]uint64, (h.Len()+63)>>6)
	}
	s.mu.Unlock()
	for wi, w := range set[:min(len(set), (len(loc)+63)>>6)] {
		for ; w != 0; w &= w - 1 {
			g := wi<<6 + bits.TrailingZeros64(w)
			if g >= len(loc) {
				break
			}
			l := loc[g]
			f := &sf.shards[l.shard]
			f.Bits[l.local>>6] |= 1 << uint(l.local&63)
			f.Count++
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
		return nil, ErrNoMetadata
	}
	set, count, err := s.Meta.CompileAlloc(p)
	if err != nil {
		return nil, err
	}
	return s.NewFilter(set, count), nil
}
