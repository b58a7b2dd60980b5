package nsg

import "repro/internal/distsearch"

// SearchStats reports the work one query performed, for capacity planning
// and parameter tuning: Hops is the number of greedy expansions (the
// paper's path length l in its o·l cost model) and DistanceComputations the
// number of distance evaluations, each summed across the shard searches.
type SearchStats = distsearch.SearchStats
