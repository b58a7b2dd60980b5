package nsg

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graphutil"
	"repro/internal/knngraph"
	"repro/internal/vecmath"
	"repro/internal/vecmath/quant"
)

// ShardedOptions is the option type of BuildShardedFromFlat: Options with
// the shard count beside it instead of in Options.Shards.
type ShardedOptions struct {
	Shards int     // Options.Shards
	Shard  Options // every other option
}

// DefaultShardedOptions returns DefaultOptions with the given shard count.
func DefaultShardedOptions(shards int) ShardedOptions {
	return ShardedOptions{Shards: shards, Shard: DefaultOptions()}
}

// BuildShardedFromFlat is BuildFromFlat with opts.Shard's Shards set to
// opts.Shards.
func BuildShardedFromFlat(data []float32, dim int, opts ShardedOptions) (*Index, error) {
	opts.Shard.Shards = opts.Shards
	return BuildFromFlat(data, dim, opts.Shard)
}

// add accumulates one shard's build: its kNN graph time and Algorithm 2's.
func (b *BuildStats) add(knn time.Duration, cs core.BuildStats) {
	b.KNNGraph += knn
	b.Navigate += cs.Phases.Navigate
	b.Collect += cs.Phases.Collect
	b.InterInsert += cs.Phases.InterInsert
	b.Repair += cs.Phases.Repair
	b.Flatten += cs.Phases.Flatten
	b.TreeRepairEdges += cs.TreeRepairEdges
	b.TreePasses += cs.TreePasses
	b.RepairOverCap += cs.RepairOverCap
}

// buildShard copies out the rows ids names (ascending global ids) and
// builds their NSG through the one build pipeline: kNN graph, Algorithm 2,
// BFS relayout into cache order. Shard sh seeds both from opts.Seed + sh.
// qz, non-nil iff opts.Quantize is QuantSQ8, is the quantizer trained once
// on the full base matrix: the relaid shard is encoded with those shared
// scales instead of retraining per shard. The grid is per-dimension
// min/max, so a one-shard index encodes exactly as one trained on its own
// rows would.
func buildShard(base vecmath.Matrix, ids []int32, opts Options, sh int, qz *quant.Quantizer) (*core.NSG, time.Duration, core.BuildStats, error) {
	sub := vecmath.NewMatrix(len(ids), base.Dim)
	for j, g := range ids {
		copy(sub.Row(j), base.Row(int(g)))
	}
	seed := opts.Seed + int64(sh)
	start := time.Now()
	knn, err := knngraph.BuildForNSG(sub, opts.GraphK, opts.ExactKNN, seed)
	if err != nil {
		return nil, 0, core.BuildStats{}, fmt.Errorf("shard %d kNN graph: %w", sh, err)
	}
	knnTime := time.Since(start)
	idx, cs, err := core.NSGBuild(knn, sub, core.BuildParams{L: opts.BuildL, M: opts.MaxDegree, Seed: seed})
	if err != nil {
		return nil, 0, cs, fmt.Errorf("shard %d NSG: %w", sh, err)
	}
	idx.Relayout()
	if qz != nil {
		if err := idx.EnableQuantization(qz); err != nil {
			return nil, 0, cs, fmt.Errorf("shard %d quantize: %w", sh, err)
		}
	}
	return idx, knnTime, cs, nil
}

// buildShards is the one build pipeline (every builder, and Compact with
// the index's own options and shard count): it randomly partitions base
// into shards near-equal subsets (the paper partitions "randomly and
// evenly", seeded by opts.Seed) and builds one NSG per shard; base is
// copied into the shards and not kept. Each shard holds its rows in
// ascending global-id order, so a one-shard build is the identity
// partition. Shard builds run in parallel (graphutil.ParallelFor caps them
// at GOMAXPROCS); each shard's seed is derived from opts.Seed, so the
// result is identical to a sequential build.
func buildShards(base vecmath.Matrix, opts Options, shards int) (*sharded, error) {
	start := time.Now()
	if base.Rows < 2 || (shards > 1 && base.Rows < shards*4) {
		return nil, fmt.Errorf("%d points cannot fill %d shards", base.Rows, shards)
	}
	if opts.Quantize == QuantSQ8 && base.Dim > quant.MaxDim {
		return nil, fmt.Errorf("dimension %d exceeds the SQ8 int32-accumulation limit %d", base.Dim, quant.MaxDim)
	}
	perm := rand.New(rand.NewSource(opts.Seed)).Perm(base.Rows)
	per := (base.Rows + shards - 1) / shards
	var ids [][]int32
	for lo := 0; lo < base.Rows; lo += per {
		span := make([]int32, 0, per)
		for _, g := range perm[lo:min(lo+per, base.Rows)] {
			span = append(span, int32(g))
		}
		slices.Sort(span)
		ids = append(ids, span)
	}

	// One quantizer training pass for the whole build: trained on the full
	// matrix before the fan-out, shared read-only by every shard's encode.
	var qz *quant.Quantizer
	if opts.Quantize == QuantSQ8 {
		q := quant.Train(base)
		qz = &q
	}

	s := &sharded{dim: base.Dim, shards: make([]*core.NSG, len(ids))}
	errs := make([]error, len(ids))
	var mu sync.Mutex
	graphutil.ParallelFor(len(ids), func(sh int) {
		idx, knn, cs, err := buildShard(base, ids[sh], opts, sh, qz)
		s.shards[sh], errs[sh] = idx, err
		mu.Lock()
		s.stats.add(knn, cs)
		mu.Unlock()
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if err := s.start(ids, base.Rows); err != nil {
		return nil, err
	}
	s.stats.Total = time.Since(start)
	return s, nil
}
