package nsg

import (
	"fmt"

	"repro/internal/distsearch"
	"repro/internal/vecmath"
)

// ShardedOptions configures BuildSharded.
type ShardedOptions struct {
	// Shards is the number of partitions r. The paper's deployments use
	// r = 16 (DEEP100M) and r = 12/32 (Taobao); at library scale, a few
	// shards per available core is the useful range.
	Shards int
	// Shard holds the per-shard construction and search options; shard s
	// derives its seed from Shard.Seed + s, so builds are reproducible.
	Shard Options
}

// DefaultShardedOptions returns settings that work at test-to-laptop scale
// for the given shard count.
func DefaultShardedOptions(shards int) ShardedOptions {
	return ShardedOptions{Shards: shards, Shard: DefaultOptions()}
}

// BuildSharded partitions vectors into opts.Shards random near-equal
// subsets (the paper partitions "randomly and evenly") and builds one NSG
// per shard, in parallel.
func BuildSharded(vectors [][]float32, opts ShardedOptions) (*Index, error) {
	if len(vectors) < 2 {
		return nil, fmt.Errorf("nsg: need at least 2 vectors, have %d", len(vectors))
	}
	return buildShardedFromMatrix(vecmath.MatrixFromSlices(vectors), opts)
}

// BuildShardedFromFlat is BuildSharded over row-major flat data: data holds
// n*dim values. The index copies the rows into its shards and keeps no
// reference to data.
func BuildShardedFromFlat(data []float32, dim int, opts ShardedOptions) (*Index, error) {
	if dim <= 0 || len(data)%dim != 0 {
		return nil, fmt.Errorf("nsg: data length %d not a multiple of dim %d", len(data), dim)
	}
	n := len(data) / dim
	if n < 2 {
		return nil, fmt.Errorf("nsg: need at least 2 vectors, have %d", n)
	}
	return buildShardedFromMatrix(vecmath.Matrix{Data: data, Rows: n, Dim: dim}, opts)
}

// buildShardedFromMatrix is the one build pipeline (every builder, and
// Compact through distsearch with the same params): per shard, the kNN
// graph, Algorithm 2, a BFS relayout into cache order, then the SQ8 encode
// when the options ask for it. base is copied into the shards; ids stay
// the caller's row numbers.
func buildShardedFromMatrix(base vecmath.Matrix, opts ShardedOptions) (*Index, error) {
	shard := opts.Shard
	if err := shard.Quantize.check(); err != nil {
		return nil, err
	}
	if !vecmath.Finite(base.Data) {
		return nil, ErrNonFinite
	}
	shard.fillDefaults()
	s, err := distsearch.BuildSharded(base, params(shard, max(opts.Shards, 1)))
	if err != nil {
		return nil, fmt.Errorf("nsg: build: %w", err)
	}
	x := &Index{}
	x.init(s, shard)
	return x, nil
}

// Shards returns the number of partitions.
func (x *Index) Shards() int { return x.s.Shards() }
