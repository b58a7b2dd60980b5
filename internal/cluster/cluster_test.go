package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/vecmath"
)

const nShards = 3

func addr(si int, r byte) string { return fmt.Sprintf("s%d%c", si, r) }

// testTopo is 3 shards x 2 replicas with IDOffset si*100, so global-id
// translation is exercised by every merge check.
func testTopo() cluster.Topology {
	var t cluster.Topology
	for si := 0; si < nShards; si++ {
		t.Shards = append(t.Shards, cluster.Shard{
			Replicas: []string{addr(si, 'a'), addr(si, 'b')},
			IDOffset: int32(si * 100),
		})
	}
	return t
}

// memShard is one shard's canned answer; both replicas serve it identically,
// so a result's content depends only on which shards contributed.
type memShard struct {
	ids   []int32
	dists []float32
}

type memTransport struct {
	shards map[string]memShard
}

func (m *memTransport) Search(ctx context.Context, a string, _ time.Time, req *cluster.SearchRequest, resp *cluster.SearchResponse) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sh, ok := m.shards[a]
	if !ok {
		return fmt.Errorf("memTransport: unknown replica %s", a)
	}
	n := min(req.K, len(sh.ids))
	resp.IDs = append(resp.IDs[:0], sh.ids[:n]...)
	resp.Dists = append(resp.Dists[:0], sh.dists[:n]...)
	return nil
}

func (m *memTransport) Ready(ctx context.Context, a string) error {
	if _, ok := m.shards[a]; !ok {
		return fmt.Errorf("memTransport: unknown replica %s", a)
	}
	return ctx.Err()
}

// testMem interleaves distances across shards (shard si's j-th neighbor has
// dist j*3+si), so the global top-k draws from every shard.
func testMem() *memTransport {
	m := &memTransport{shards: map[string]memShard{}}
	for si := 0; si < nShards; si++ {
		var sh memShard
		for j := 0; j < 8; j++ {
			sh.ids = append(sh.ids, int32(j))
			sh.dists = append(sh.dists, float32(j*nShards+si))
		}
		m.shards[addr(si, 'a')] = sh
		m.shards[addr(si, 'b')] = sh
	}
	return m
}

// want is the expected merge over the shards not listed in missing.
func want(k int, missing ...int) []vecmath.Neighbor {
	var all []vecmath.Neighbor
	for si := 0; si < nShards; si++ {
		if slices.Contains(missing, si) {
			continue
		}
		for j := 0; j < 8; j++ {
			all = append(all, vecmath.Neighbor{ID: int32(si*100 + j), Dist: float32(j*nShards + si)})
		}
	}
	slices.SortFunc(all, vecmath.CompareNeighbors)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func checkNeighbors(t *testing.T, got, exp []vecmath.Neighbor) {
	t.Helper()
	if !slices.Equal(got, exp) {
		t.Fatalf("merged result mismatch:\n got %v\nwant %v", got, exp)
	}
}

func fastOpts() cluster.Options {
	return cluster.Options{
		AttemptTimeout: 100 * time.Millisecond,
		MaxAttempts:    4,
		RetryBackoff:   time.Millisecond,
		EjectAfter:     2,
		Seed:           7,
	}
}

func newRouter(t *testing.T, ft *cluster.FaultTransport, opts cluster.Options) *cluster.Router {
	t.Helper()
	rt, err := cluster.New(testTopo(), ft, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestRouterMergesAllShards(t *testing.T) {
	ft := cluster.NewFaultTransport(testMem(), 1)
	rt := newRouter(t, ft, fastOpts())
	ns, res, err := rt.SearchAppend(context.Background(), nil, nil, 6, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || len(res.Missing) > 0 {
		t.Fatalf("healthy cluster returned degraded result: %+v", res)
	}
	checkNeighbors(t, ns, want(6))
	m := rt.Metrics()
	if m.Queries != 1 || m.Attempts != 3 || m.Retries != 0 {
		t.Fatalf("metrics = %+v, want 1 query / 3 attempts / 0 retries", m)
	}
}

// TestRetryAfterFault drives the retry loop through each failure mode of the
// first-preference replica: the query must fail over to the sibling replica
// and still return the complete merge.
func TestRetryAfterFault(t *testing.T) {
	cases := []struct {
		name     string
		fault    cluster.Fault
		injected bool // fails via injected error (vs timeout/cancel)
	}{
		{"killed", cluster.Fault{Kill: true}, true},
		{"flaky", cluster.Fault{ErrRate: 1}, true},
		{"hung", cluster.Fault{Hang: true}, false},                      // attempt timeout -> retry
		{"slow", cluster.Fault{Latency: 300 * time.Millisecond}, false}, // slower than AttemptTimeout
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ft := cluster.NewFaultTransport(testMem(), 1)
			ft.SetFault(addr(0, 'a'), tc.fault)
			rt := newRouter(t, ft, fastOpts())
			ns, res, err := rt.SearchAppend(context.Background(), nil, nil, 6, 32, nil)
			if err != nil {
				t.Fatalf("query did not survive fault: %v", err)
			}
			if res.Degraded {
				t.Fatalf("one bad replica must not degrade the result: %+v", res)
			}
			checkNeighbors(t, ns, want(6))
			m := rt.Metrics()
			if m.Retries != 1 || m.Attempts != 4 {
				t.Fatalf("metrics = %+v, want exactly 1 retry / 4 attempts", m)
			}
			st := ft.Stats(addr(0, 'a'))
			if tc.injected && st.Injected == 0 {
				t.Fatalf("fault never injected: %+v", st)
			}
			if !tc.injected && st.Canceled == 0 {
				t.Fatalf("hung/slow call was not canceled by the attempt timeout: %+v", st)
			}
		})
	}
}

func TestAllReplicasDownPolicy(t *testing.T) {
	kill := func(ft *cluster.FaultTransport, si int) {
		ft.Kill(addr(si, 'a'))
		ft.Kill(addr(si, 'b'))
	}

	t.Run("fail", func(t *testing.T) {
		ft := cluster.NewFaultTransport(testMem(), 1)
		kill(ft, 1)
		opts := fastOpts()
		opts.Partial = cluster.PartialFail
		rt := newRouter(t, ft, opts)
		_, _, err := rt.SearchAppend(context.Background(), nil, nil, 6, 32, nil)
		var sde *cluster.ShardsDownError
		if !errors.As(err, &sde) {
			t.Fatalf("want *ShardsDownError, got %v", err)
		}
		if !slices.Equal(sde.Shards, []int{1}) {
			t.Fatalf("down shards = %v, want [1]", sde.Shards)
		}
		if m := rt.Metrics(); m.FailedQueries != 1 || m.ShardFailures != 1 {
			t.Fatalf("metrics = %+v, want 1 failed query / 1 shard failure", m)
		}
	})

	t.Run("serve", func(t *testing.T) {
		ft := cluster.NewFaultTransport(testMem(), 1)
		kill(ft, 1)
		opts := fastOpts()
		opts.Partial = cluster.PartialServe
		rt := newRouter(t, ft, opts)
		ns, res, err := rt.SearchAppend(context.Background(), nil, nil, 6, 32, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Degraded || !slices.Equal(res.Missing, []int{1}) {
			t.Fatalf("result = %+v, want degraded with missing [1]", res)
		}
		checkNeighbors(t, ns, want(6, 1))
		if m := rt.Metrics(); m.Degraded != 1 {
			t.Fatalf("metrics = %+v, want 1 degraded", m)
		}
	})

	t.Run("all-shards-down", func(t *testing.T) {
		ft := cluster.NewFaultTransport(testMem(), 1)
		for si := 0; si < nShards; si++ {
			kill(ft, si)
		}
		opts := fastOpts()
		opts.Partial = cluster.PartialServe // even serve cannot answer from nothing
		rt := newRouter(t, ft, opts)
		_, _, err := rt.SearchAppend(context.Background(), nil, nil, 6, 32, nil)
		var sde *cluster.ShardsDownError
		if !errors.As(err, &sde) {
			t.Fatalf("want *ShardsDownError, got %v", err)
		}
		if !slices.Equal(sde.Shards, []int{0, 1, 2}) {
			t.Fatalf("down shards = %v, want [0 1 2]", sde.Shards)
		}
	})
}

// TestHedgeWinAndLoserCanceled makes the first-preference replica slow so
// the hedged request to its sibling answers first; the slow loser must be
// canceled and must NOT be charged a health failure.
func TestHedgeWinAndLoserCanceled(t *testing.T) {
	ft := cluster.NewFaultTransport(testMem(), 1)
	ft.SetFault(addr(0, 'a'), cluster.Fault{Latency: 300 * time.Millisecond})
	opts := fastOpts()
	opts.AttemptTimeout = 2 * time.Second // latency is cancel-bound, not deadline-bound
	opts.HedgeAfter = 20 * time.Millisecond
	rt := newRouter(t, ft, opts)

	start := time.Now()
	ns, res, err := rt.SearchAppend(context.Background(), nil, nil, 6, 32, nil)
	if err != nil || res.Degraded {
		t.Fatalf("err=%v res=%+v", err, res)
	}
	checkNeighbors(t, ns, want(6))
	if el := time.Since(start); el > 250*time.Millisecond {
		t.Fatalf("hedge did not rescue latency: query took %v", el)
	}
	m := rt.Metrics()
	if m.Hedges != 1 || m.HedgeWins != 1 || m.Retries != 0 {
		t.Fatalf("metrics = %+v, want exactly 1 hedge / 1 hedge win / 0 retries", m)
	}

	// The loser's cancellation lands asynchronously after Search returns.
	deadline := time.Now().Add(2 * time.Second)
	for ft.Stats(addr(0, 'a')).Canceled == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slow loser never canceled: %+v", ft.Stats(addr(0, 'a')))
		}
		time.Sleep(time.Millisecond)
	}
	for _, rh := range rt.Health()[0] {
		if !rh.Healthy || rh.ConsecFails != 0 {
			t.Fatalf("canceled hedge loser was charged a failure: %+v", rh)
		}
	}
}

// TestEjectionAndReadmission walks a replica through the health lifecycle:
// repeated query failures eject it, queries then stop touching it, and after
// the fault clears a probe readmits it. A second replica is ejected purely
// by the active prober.
func TestEjectionAndReadmission(t *testing.T) {
	ft := cluster.NewFaultTransport(testMem(), 1)
	ft.SetFault(addr(0, 'a'), cluster.Fault{ErrRate: 1})
	rt := newRouter(t, ft, fastOpts()) // EjectAfter: 2, no background prober

	// Primaries rotate, so within a few queries s0a accumulates 2
	// consecutive failures and is ejected.
	for i := 0; i < 4; i++ {
		if _, res, err := rt.SearchAppend(context.Background(), nil, nil, 6, 32, nil); err != nil || res.Degraded {
			t.Fatalf("query %d: err=%v res=%+v", i, err, res)
		}
	}
	if h := rt.Health()[0][0]; h.Healthy || h.Ejections != 1 {
		t.Fatalf("s0a not ejected after repeated failures: %+v", h)
	}
	// One ejected replica does not dent readiness: the shard is still
	// covered by its sibling.
	if full, partial := rt.Ready(); !full || !partial {
		t.Fatalf("Ready() = %v,%v with the shard still covered, want full=true partial=true", full, partial)
	}
	ft.SetFault(addr(0, 'b'), cluster.Fault{ErrRate: 1})
	rt.ProbeNow()
	rt.ProbeNow() // EjectAfter=2: now the whole shard is uncovered
	if full, partial := rt.Ready(); full || !partial {
		t.Fatalf("Ready() = %v,%v with shard 0 fully ejected, want full=false partial=true", full, partial)
	}
	ft.Revive(addr(0, 'b'))
	rt.ProbeNow()

	// Ejected replicas are deprioritized: further queries succeed on the
	// sibling without touching s0a.
	before := ft.Stats(addr(0, 'a')).Calls
	for i := 0; i < 4; i++ {
		if _, _, err := rt.SearchAppend(context.Background(), nil, nil, 6, 32, nil); err != nil {
			t.Fatal(err)
		}
	}
	if after := ft.Stats(addr(0, 'a')).Calls; after != before {
		t.Fatalf("ejected replica still receiving queries: %d -> %d calls", before, after)
	}

	// Recovery: fault cleared, the next probe readmits it.
	ft.Revive(addr(0, 'a'))
	rt.ProbeNow()
	if h := rt.Health()[0][0]; !h.Healthy {
		t.Fatalf("revived replica not readmitted by probe: %+v", h)
	}
	if full, _ := rt.Ready(); !full {
		t.Fatal("Ready() not full after readmission")
	}
	if m := rt.Metrics(); m.Readmits < 1 {
		t.Fatalf("metrics = %+v, want >=1 readmit", m)
	}

	// The prober also ejects on its own, with the same streak threshold.
	ft.Kill(addr(2, 'b'))
	rt.ProbeNow()
	if h := rt.Health()[2][1]; !h.Healthy {
		t.Fatalf("one failed probe must not eject (EjectAfter=2): %+v", h)
	}
	rt.ProbeNow()
	if h := rt.Health()[2][1]; h.Healthy {
		t.Fatalf("killed replica not ejected after %d failed probes", 2)
	}
}

func TestTopologyValidateAndLoad(t *testing.T) {
	if err := (cluster.Topology{}).Validate(); err == nil {
		t.Fatal("empty topology validated")
	}
	if err := (cluster.Topology{Shards: []cluster.Shard{{}}}).Validate(); err == nil {
		t.Fatal("shard with no replicas validated")
	}
	if err := (cluster.Topology{Shards: []cluster.Shard{{Replicas: []string{""}}}}).Validate(); err == nil {
		t.Fatal("empty replica address validated")
	}

	path := filepath.Join(t.TempDir(), "topo.json")
	blob := []byte(`{"shards": [
		{"replicas": ["127.0.0.1:8081", "127.0.0.1:8082"], "id_offset": 0},
		{"replicas": ["127.0.0.1:8083"], "id_offset": 4000}
	]}`)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	topo, err := cluster.LoadTopology(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Shards) != 2 || topo.Shards[1].IDOffset != 4000 || len(topo.Shards[0].Replicas) != 2 {
		t.Fatalf("loaded topology = %+v", topo)
	}
	if _, err := cluster.LoadTopology(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing topology file loaded")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte(`{"shards": [`), 0o644)
	if _, err := cluster.LoadTopology(bad); err == nil {
		t.Fatal("malformed topology parsed")
	}
}

func TestParsePartialPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want cluster.PartialPolicy
	}{{"fail", cluster.PartialFail}, {"serve", cluster.PartialServe}} {
		got, err := cluster.ParsePartialPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePartialPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := cluster.ParsePartialPolicy("shrug"); err == nil {
		t.Fatal("bogus policy parsed")
	}
}

// TestConcurrentKillRestartStress is the race-enabled chaos invariant from
// the issue: while replicas are killed and revived at random under
// concurrent query load, every answer must be either complete (equal to the
// full merge) or explicitly degraded (equal to the merge of exactly the
// surviving shards it names) — never silently partial.
func TestConcurrentKillRestartStress(t *testing.T) {
	ft := cluster.NewFaultTransport(testMem(), 42)
	rt, err := cluster.New(testTopo(), ft, cluster.Options{
		AttemptTimeout: 50 * time.Millisecond,
		MaxAttempts:    3,
		RetryBackoff:   time.Millisecond,
		HedgeAfter:     5 * time.Millisecond,
		Partial:        cluster.PartialServe,
		EjectAfter:     2,
		ProbeInterval:  10 * time.Millisecond,
		Seed:           99,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	stop := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		rng := rand.New(rand.NewSource(5))
		for {
			select {
			case <-stop:
				return
			default:
			}
			a := addr(rng.Intn(nShards), byte('a'+rng.Intn(2)))
			if rng.Intn(2) == 0 {
				ft.Kill(a)
			} else {
				ft.Revive(a)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	full := want(6)
	deadline := time.Now().Add(400 * time.Millisecond)
	var qwg sync.WaitGroup
	for w := 0; w < 4; w++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			var buf []vecmath.Neighbor
			for time.Now().Before(deadline) {
				var res cluster.Result
				var err error
				buf, res, err = rt.SearchAppend(context.Background(), buf[:0], nil, 6, 32, nil)
				if err != nil {
					var sde *cluster.ShardsDownError
					if !errors.As(err, &sde) || len(sde.Shards) == 0 {
						t.Errorf("unexpected error type: %v", err)
						return
					}
					continue
				}
				if res.Degraded {
					if len(res.Missing) == 0 {
						t.Error("degraded result names no missing shards")
						return
					}
					if exp := want(6, res.Missing...); !slices.Equal(buf, exp) {
						t.Errorf("degraded result (missing %v) = %v, want %v", res.Missing, buf, exp)
						return
					}
				} else if !slices.Equal(buf, full) {
					t.Errorf("silently partial result: %v, want %v", buf, full)
					return
				}
			}
		}()
	}
	qwg.Wait()
	close(stop)
	chaos.Wait()
	if m := rt.Metrics(); m.Queries == 0 {
		t.Fatal("stress ran no queries")
	}
}
