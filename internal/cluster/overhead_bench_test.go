package cluster_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/clustertest"
	"repro/internal/vecmath"
)

// httpTopo boots nShards fake shard servers answering canned responses
// over the framed wire, isolating the router's own per-query cost from
// search work.
func httpTopo(b *testing.B, nShards int) cluster.Topology {
	b.Helper()
	ids := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	dists := []float32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	topo := cluster.Topology{}
	for si := 0; si < nShards; si++ {
		topo.Shards = append(topo.Shards, cluster.Shard{
			Replicas: []string{clustertest.Start(b, "", clustertest.Canned(ids, dists)).Addr()},
			IDOffset: int32(si * 100),
		})
	}
	return topo
}

// BenchmarkRouterHTTP prices a routed query against trivial shard servers:
// the machinery (fan-out, retry loop, hedge watchdog, health, merge) plus
// three real round trips over upgraded connections. Compare against BenchmarkDirectFanoutHTTP —
// the difference is what the robustness tier costs per query.
func BenchmarkRouterHTTP(b *testing.B) {
	for _, hedge := range []time.Duration{0, 25 * time.Millisecond} {
		name := "hedge=off"
		if hedge > 0 {
			name = "hedge=on"
		}
		b.Run(name, func(b *testing.B) {
			topo := httpTopo(b, 3)
			rt, err := cluster.New(topo, newTransport(b), cluster.Options{
				AttemptTimeout: 2 * time.Second,
				HedgeAfter:     hedge,
				ProbeInterval:  time.Hour,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Close()
			q := make([]float32, 32)
			var buf []vecmath.Neighbor
			ctx := context.Background()
			if buf, _, err = rt.SearchAppend(ctx, buf[:0], q, 10, 40, nil); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _, err = rt.SearchAppend(ctx, buf[:0], q, 10, 40, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDirectFanoutHTTP is the floor the router is priced against: the
// same parallel per-shard calls (with the same per-call deadline) and the
// same k-way merge, with no retry/hedge/health machinery.
func BenchmarkDirectFanoutHTTP(b *testing.B) {
	topo := httpTopo(b, 3)
	tr := newTransport(b)
	q := make([]float32, 32)
	lists := make([][]vecmath.Neighbor, len(topo.Shards))
	resps := make([]cluster.SearchResponse, len(topo.Shards))
	errs := make([]error, len(topo.Shards))
	var out, merged []vecmath.Neighbor
	pass := func() error {
		req := &cluster.SearchRequest{Query: q, K: 10, L: 40}
		var wg sync.WaitGroup
		wg.Add(len(topo.Shards))
		for si := range topo.Shards {
			go func(si int) {
				defer wg.Done()
				resp := &resps[si]
				err := tr.Search(context.Background(), topo.Shards[si].Replicas[0], time.Now().Add(2*time.Second), req, resp)
				if err != nil {
					errs[si] = err
					lists[si] = lists[si][:0]
					return
				}
				list := lists[si][:0]
				for i := range resp.IDs {
					list = append(list, vecmath.Neighbor{ID: resp.IDs[i] + topo.Shards[si].IDOffset, Dist: resp.Dists[i]})
				}
				lists[si] = list
			}(si)
		}
		wg.Wait()
		out, merged = vecmath.MergeInto(out[:0], merged, 10, lists)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := pass(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pass(); err != nil {
			b.Fatal(err)
		}
	}
}
