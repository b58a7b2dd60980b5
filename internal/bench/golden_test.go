package bench

import (
	"bytes"
	"hash/fnv"
	"strings"
	"testing"
	"time"
)

// experimentGolden holds FNV-64a digests of what nine experiments print at
// Scale 0.05, Queries 10, Seed 1, with every field that reads a clock or
// counts allocations masked (clockFields). The rest (recall, dist/query,
// hops, plan, bytes/hop, avg deg, the effort that reaches a target, fitted
// exponents of non-time series, Tables 2 and 4's graph statistics, Δr) is
// a pure function of the seed, and a
// change to how a sweep cell is measured must leave it alone. Regenerate a
// digest only for a change that means to move these numbers.
var experimentGolden = map[string]uint64{
	"fig8":     0xbccd1e48dcf2f8ae,
	"quant":    0x5e1a4e501992203d,
	"filter":   0xb69719cf47e83c29,
	"ablation": 0xe84f61c6b5c68909,
	"hops":     0x894dd87d2b7394d7,
	"fig6":     0x85d728ca8ad85f49,
	"table2":   0x47bf146a7e3b62a6,
	"table4":   0x1d043fa137707437,
	"deltar":   0x76ba37509baedd5f,
}

// clockFields returns the indexes of the whitespace-separated fields of one
// printed line that the golden digests skip: QPS, ms/query and allocs/q.
var clockFields = map[string]func(f []string) []int{
	"fig8":   func([]string) []int { return nil },
	"hops":   func([]string) []int { return nil },
	"table2": func([]string) []int { return nil },
	"table4": func([]string) []int { return nil },
	"deltar": func([]string) []int { return nil },
	"fig6": func(f []string) []int {
		switch {
		case len(f) == 5 && !strings.HasPrefix(f[1], "("): // algorithm effort recall QPS dist/query
			return []int{3}
		case len(f) == 2: // "NSG <QPS at recall>"
			return []int{1}
		}
		return nil
	},
	// Every ablation row ends in its QPS.
	"ablation": func(f []string) []int { return []int{len(f) - 1} },
	"quant": func(f []string) []int {
		switch len(f) {
		case 9: // variant effort recall QPS ms/query hops dist/query bytes/hop allocs/q
			return []int{3, 4, 8}
		case 3: // "float32 <QPS> (L=..)"
			return []int{1}
		case 5: // "sq8 <QPS> (L=..) <ratio>x float32"
			return []int{1, 3}
		}
		return nil
	},
	"filter": func(f []string) []int {
		switch len(f) {
		case 9: // variant selectivity effort plan recall QPS ms/query hops allocs/q
			return []int{5, 6, 8}
		case 5: // tenants selectivity recall QPS allocs/q
			return []int{3, 4}
		}
		return nil
	},
}

// maskedDigest hashes out line by line with the clock fields blanked.
func maskedDigest(out string, mask func([]string) []int) uint64 {
	h := fnv.New64a()
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		for _, i := range mask(f) {
			if i >= 0 && i < len(f) {
				f[i] = "-"
			}
		}
		h.Write([]byte(strings.Join(f, " ") + "\n"))
	}
	return h.Sum64()
}

func TestExperimentColumnsGolden(t *testing.T) {
	t.Chdir(t.TempDir()) // quant and filter write their BENCH_*.json here
	// The digests skip every clock, so two timing passes a cell will do.
	defer func(b time.Duration) { passBudget = b }(passBudget)
	passBudget = 0
	c := DefaultExpConfig()
	c.Scale, c.Queries, c.Seed = 0.05, 10, 1
	exps := Experiments()
	for id, mask := range clockFields {
		var buf bytes.Buffer
		if err := exps[id](&buf, c); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got, want := maskedDigest(buf.String(), mask), experimentGolden[id]; got != want {
			t.Errorf("%s digest = %#x, want %#x; output:\n%s", id, got, want, buf.String())
		}
	}
}
