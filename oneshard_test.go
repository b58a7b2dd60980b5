package nsg

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/dataset"
)

// goroutinesMatching counts the goroutines whose stack dump holds any of
// marks.
func goroutinesMatching(marks ...string) int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if slices.ContainsFunc(marks, func(m string) bool { return bytes.Contains(g, []byte(m)) }) {
			count++
		}
	}
	return count
}

// shardWorkers counts the fan-out shard workers: by their
// (*sharded).worker frame or, for one not yet scheduled, whose stack shows
// only its go statement's wrapper, by their creator (*sharded).start, which
// starts no other goroutine.
func shardWorkers() int {
	return goroutinesMatching("\nrepro.(*sharded).worker(", "\ncreated by repro.(*sharded).start in ")
}

// maintainers counts the live maintainer goroutines the same way: by their
// (*Handle).run frame, or their creator in internal/live, which starts no
// other goroutine.
func maintainers() int {
	return goroutinesMatching("\nrepro/internal/live.(*Handle).run(", "\ncreated by repro/internal/live.")
}

// settledCount returns count() once two readings 5 ms apart agree (or
// after a second), so goroutines an earlier test stopped have exited.
func settledCount(count func() int) int {
	n := count()
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		m := count()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestShardWorkersCounted: the frame shardWorkers looks for is the one a
// multi-shard index's workers run, so a zero count means no worker.
func TestShardWorkersCounted(t *testing.T) {
	ds, err := dataset.SIFTLike(dataset.Config{N: 200, Queries: 1, GTK: 1, Dim: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := settledCount(shardWorkers)
	x, err := BuildShardedFromFlat(ds.Base.Data, ds.Base.Dim, DefaultShardedOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if now := shardWorkers(); now <= before {
		t.Fatalf("a two-shard index runs %d shard workers, %d ran before it", now, before)
	}
}

// oneShardPair is an Index and a one-shard ShardedIndex built from the same
// rows with the same options.
type oneShardPair struct {
	idx *Index
	sh  *ShardedIndex
}

// parityMetadata gives row i a category (one of ten, so Eq passes 10%) and
// a tenant (one of 200, so one tenant passes 0.5%).
func parityMetadata(n int) *Metadata {
	cats := make([]string, n)
	tenants := make([]int64, n)
	for i := range cats {
		cats[i] = fmt.Sprint("c", i*7%10)
		tenants[i] = int64(i * 13 % 200)
	}
	m := NewMetadata(n)
	if err := m.AddEnum("category", cats); err != nil {
		panic(err)
	}
	if err := m.AddInt64("tenant", tenants); err != nil {
		panic(err)
	}
	return m
}

func parityRow(i int) map[string]any {
	return map[string]any{"category": fmt.Sprint("c", i*7%10), "tenant": int64(i * 13 % 200)}
}

// TestIndexIsOneShardSharded holds an Index and a one-shard ShardedIndex
// built from the same 2 000 SIFT-like 128-d rows and options to the same
// answers, bit for bit, with the same hops and distance evaluations: plain
// and under 10% and 0.5% filters, after 10% deletes, with Adds pending in
// the delta, and after Compact. Building and searching a one-shard index
// starts no goroutine.
func TestIndexIsOneShardSharded(t *testing.T) {
	const n, adds, queries = 2000, 100, 200
	ds, err := dataset.SIFTLike(dataset.Config{N: n + adds, Queries: queries, GTK: 1, Dim: 128, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []QuantMode{QuantNone, QuantSQ8} {
		t.Run(q.String(), func(t *testing.T) {
			opts := DefaultOptions()
			opts.ExactKNN = true
			opts.Seed = 5
			opts.Quantize = q
			rows := ds.Base.Data[:n*ds.Base.Dim]

			workers := settledCount(shardWorkers)
			idx, err := BuildFromFlat(slices.Clone(rows), ds.Base.Dim, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer idx.Close()
			sh, err := BuildShardedFromFlat(slices.Clone(rows), ds.Base.Dim, ShardedOptions{Shards: 1, Shard: opts})
			if err != nil {
				t.Fatal(err)
			}
			defer sh.Close()
			p := oneShardPair{idx, sh}
			for _, set := range []func(*Metadata) error{idx.SetMetadata, sh.SetMetadata} {
				if err := set(parityMetadata(n)); err != nil {
					t.Fatal(err)
				}
			}
			p.check(t, "plain", ds)
			// Only shard workers are counted: other goroutines (the build's
			// parallel loops, an earlier test's stopping maintainer) come
			// and go on their own schedule.
			if now := shardWorkers(); now != workers {
				t.Errorf("building and searching one-shard indexes took the shard worker count from %d to %d", workers, now)
			}

			for id := int32(3); id < n; id += 10 {
				for _, del := range []func(int32) error{idx.Delete, sh.Delete} {
					if err := del(id); err != nil {
						t.Fatal(err)
					}
				}
			}
			p.check(t, "10% deleted", ds)

			for _, live := range []func(LiveOptions) error{idx.EnableLiveUpdates, sh.EnableLiveUpdates} {
				if err := live(LiveOptions{MaxPending: 1 << 20, PublishInterval: time.Hour}); err != nil {
					t.Fatal(err)
				}
			}
			for i := n; i < n+adds; i++ {
				a, errA := idx.AddWithMetadata(ds.Base.Row(i), parityRow(i))
				b, errB := sh.AddWithMetadata(ds.Base.Row(i), parityRow(i))
				if errA != nil || errB != nil || a != int32(i) || b != int32(i) {
					t.Fatalf("AddWithMetadata of row %d: ids %d and %d, errors %v and %v", i, a, b, errA, errB)
				}
			}
			if st := idx.MaintenanceStats(); st.Pending != adds {
				t.Fatalf("%d rows pending, want %d", st.Pending, adds)
			}
			p.check(t, "adds pending", ds)

			remapA, errA := idx.Compact()
			remapB, errB := sh.Compact()
			if errA != nil || errB != nil || !slices.Equal(remapA, remapB) {
				t.Fatalf("Compact: errors %v and %v, remaps equal %v", errA, errB, slices.Equal(remapA, remapB))
			}
			p.check(t, "compacted", ds)
		})
	}
}

// check compares the pair on every query, unfiltered and under filters
// compiled now.
func (p oneShardPair) check(t *testing.T, step string, ds dataset.Dataset) {
	t.Helper()
	for _, c := range []struct {
		name string
		pred Predicate
	}{{"unfiltered", Predicate{}}, {"f10", Eq("category", "c3")}, {"f05", Range("tenant", 17, 17)}} {
		var fa, fb *Filter
		if c.name != "unfiltered" {
			var errA, errB error
			fa, errA = p.idx.CompileFilter(c.pred)
			fb, errB = p.sh.CompileFilter(c.pred)
			if errA != nil || errB != nil || fa.Count() != fb.Count() {
				t.Fatalf("%s %s: compile errors %v and %v", step, c.name, errA, errB)
			}
		}
		for qi := 0; qi < ds.Queries.Rows; qi++ {
			q := ds.Queries.Row(qi)
			idsA, distsA, stA := filteredStats(p.idx, q, 10, 60, fa)
			idsB, distsB, stB := filteredStats(p.sh, q, 10, 60, fb)
			if len(idsA) == 0 || !slices.Equal(idsA, idsB) || stA != stB || !sameBits(distsA, distsB) {
				t.Fatalf("%s %s query %d: Index answers %v %v %+v, the one-shard ShardedIndex %v %v %+v",
					step, c.name, qi, idsA, distsA, stA, idsB, distsB, stB)
			}
		}
	}
}

func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}
