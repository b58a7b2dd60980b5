package bench

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/vecmath"
)

// ClusterChaos records the SIGKILL phase: one replica of shard 0 is killed
// mid-run and every query must still be answered completely by the sibling.
type ClusterChaos struct {
	TotalQueries   int     `json:"total_queries"`
	KillAtQuery    int     `json:"kill_at_query"`
	Errors         int     `json:"errors"`
	Degraded       int     `json:"degraded"`
	Availability   float64 `json:"availability"`
	P50BeforeMs    float64 `json:"p50_before_kill_ms"`
	MaxAfterKillMs float64 `json:"max_after_kill_ms"` // worst failover latency
	Retries        uint64  `json:"retries"`
	Hedges         uint64  `json:"hedges"`
	Ejections      uint64  `json:"ejections"`
}

// ClusterDegradedPhase records the whole-shard-down phase: with both
// replicas of shard 0 killed, a serve-policy router must answer every query
// degraded (flagging shard 0), and a fail-policy router must answer 503.
type ClusterDegradedPhase struct {
	Queries       int     `json:"queries"`
	Degraded      int     `json:"degraded"`
	Errors        int     `json:"errors"`
	MissingShard  int     `json:"missing_shard"`
	Recall        float64 `json:"recall"` // over the surviving 2/3 of the corpus
	FailPolicyErr bool    `json:"fail_policy_errored"`
}

// ClusterResult is the serialized record of one -exp cluster run.
type ClusterResult struct {
	runRecord
	L             int                  `json:"l"`
	Shards        int                  `json:"shards"`
	Replicas      int                  `json:"replicas"`
	Chaos         ClusterChaos         `json:"chaos"`
	DegradedPhase ClusterDegradedPhase `json:"degraded_phase"`
}

// clusterL is the search pool both chaos phases query at.
const clusterL = 40

// localCluster is a real cluster on localhost: per-shard bundles on disk
// and shards x replicas nsgserve processes, each listening on an ephemeral
// port. Replicas of a shard serve the same bundle; shard si covers the
// contiguous row span [spans[si], spans[si+1]) of the corpus so its
// IDOffset recovers global ids.
type localCluster struct {
	dir   string
	topo  cluster.Topology
	procs [][]*exec.Cmd
}

// buildShardBundles builds one single-shard NSG per contiguous span of the
// corpus and saves each as a bundle nsgserve can load.
func buildShardBundles(dir string, ds dataset.Dataset, shards int, seed int64) ([]string, []int, error) {
	n, dim := ds.Base.Rows, ds.Base.Dim
	paths := make([]string, shards)
	spans := make([]int, shards+1)
	for si := 0; si < shards; si++ {
		spans[si+1] = (si + 1) * n / shards
	}
	for si := 0; si < shards; si++ {
		lo, hi := spans[si], spans[si+1]
		sub := append([]float32(nil), ds.Base.Data[lo*dim:hi*dim]...)
		idx, err := nsg.BuildFromFlat(sub, dim, nsg.Options{GraphK: 20, Seed: seed + int64(si)})
		if err != nil {
			return nil, nil, fmt.Errorf("bench: build shard %d: %w", si, err)
		}
		paths[si] = filepath.Join(dir, fmt.Sprintf("shard%d.nsg", si))
		err = idx.Save(paths[si])
		idx.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("bench: save shard %d: %w", si, err)
		}
	}
	return paths, spans, nil
}

// startReplica execs one nsgserve on an ephemeral port and parses the
// "listening on" line for the real address.
func startReplica(bin, bundle string) (*exec.Cmd, string, error) {
	cmd := exec.Command(bin, "-index", bundle, "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	type scanResult struct {
		addr string
		err  error
	}
	ch := make(chan scanResult, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				ch <- scanResult{addr: strings.TrimSpace(a)}
				// Keep draining so the child never blocks on a full pipe.
				io.Copy(io.Discard, stdout)
				return
			}
		}
		ch <- scanResult{err: fmt.Errorf("nsgserve exited before listening: %v", sc.Err())}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			cmd.Process.Kill()
			cmd.Wait()
			return nil, "", r.err
		}
		return cmd, r.addr, nil
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		return nil, "", fmt.Errorf("nsgserve did not start listening within 60s")
	}
}

// startLocalCluster builds the per-shard bundles, compiles nsgserve once,
// and boots shards x replicas processes. Callers must defer stop().
func startLocalCluster(w io.Writer, ds dataset.Dataset, shards, replicas int, seed int64) (*localCluster, error) {
	dir, err := os.MkdirTemp("", "nsgcluster")
	if err != nil {
		return nil, err
	}
	lc := &localCluster{dir: dir}
	bundles, spans, err := buildShardBundles(dir, ds, shards, seed)
	if err != nil {
		lc.stop()
		return nil, err
	}
	bin := filepath.Join(dir, "nsgserve")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/nsgserve").CombinedOutput(); err != nil {
		lc.stop()
		return nil, fmt.Errorf("bench: go build nsgserve: %v: %s", err, out)
	}
	lc.procs = make([][]*exec.Cmd, shards)
	for si := 0; si < shards; si++ {
		sh := cluster.Shard{IDOffset: int32(spans[si])}
		lc.procs[si] = make([]*exec.Cmd, replicas)
		for ri := 0; ri < replicas; ri++ {
			cmd, addr, err := startReplica(bin, bundles[si])
			if err != nil {
				lc.stop()
				return nil, fmt.Errorf("bench: start shard %d replica %d: %w", si, ri, err)
			}
			lc.procs[si][ri] = cmd
			sh.Replicas = append(sh.Replicas, addr)
		}
		lc.topo.Shards = append(lc.topo.Shards, sh)
	}
	fmt.Fprintf(w, "cluster up: %d shards x %d replicas (pid/addr per shard):\n", shards, replicas)
	for si, sh := range lc.topo.Shards {
		for ri, a := range sh.Replicas {
			fmt.Fprintf(w, "  shard %d replica %d: pid %-6d %s\n", si, ri, lc.procs[si][ri].Process.Pid, a)
		}
	}
	return lc, nil
}

// waitReady blocks until every replica answers /readyz (or the deadline).
func (lc *localCluster) waitReady(tr cluster.Transport, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, sh := range lc.topo.Shards {
		for _, a := range sh.Replicas {
			for {
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				err := tr.Ready(ctx, a)
				cancel()
				if err == nil {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("bench: replica %s never ready: %w", a, err)
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
	}
	return nil
}

// kill SIGKILLs one replica process — the real thing, not an injected
// fault: the OS closes its sockets and in-flight requests die with it.
func (lc *localCluster) kill(si, ri int) error {
	p := lc.procs[si][ri]
	if p == nil {
		return fmt.Errorf("bench: shard %d replica %d already dead", si, ri)
	}
	if err := p.Process.Kill(); err != nil {
		return err
	}
	p.Wait()
	lc.procs[si][ri] = nil
	return nil
}

// stop kills every remaining process and removes the work dir.
func (lc *localCluster) stop() {
	for si := range lc.procs {
		for ri, p := range lc.procs[si] {
			if p != nil {
				lc.kill(si, ri)
			}
		}
	}
	os.RemoveAll(lc.dir)
}

// ClusterServing is the -exp cluster chaos gate: boot a real 3-shard x
// 2-replica nsgserve cluster behind a router, SIGKILL one replica mid-run
// (every query must survive via the sibling), then the whole shard (the
// serve policy must answer degraded, the fail policy 503). The record goes
// to BENCH_cluster.json, and a broken contract fails the run. Steady-state
// routed latency is the benchmark's cluster_mix workload, not measured here.
func ClusterServing(w io.Writer, c ExpConfig) error {
	if _, err := exec.LookPath("go"); err != nil {
		return fmt.Errorf("bench: -exp cluster needs the go tool to build nsgserve: %w", err)
	}
	n := c.n(12000)
	ds, err := dataset.SIFTLike(dataset.Config{N: n, Queries: c.Queries, GTK: c.GTK, Seed: c.Seed})
	if err != nil {
		return err
	}
	k := 10
	const shards, replicas = 3, 2
	res := ClusterResult{
		runRecord: runRecord{Dataset: ds.Name, N: ds.Base.Rows, Dim: ds.Base.Dim, Queries: ds.Queries.Rows, K: k},
		L:         clusterL, Shards: shards, Replicas: replicas,
	}
	fmt.Fprintf(w, "Cluster chaos (%d shards x %d replicas of nsgserve) on %s (n=%d, dim=%d, k=%d, L=%d)\n",
		shards, replicas, ds.Name, n, ds.Base.Dim, k, clusterL)

	lc, err := startLocalCluster(w, ds, shards, replicas, c.Seed)
	if err != nil {
		return err
	}
	defer lc.stop()
	tr := cluster.NewHTTPTransport()
	if err := lc.waitReady(tr, 60*time.Second); err != nil {
		return err
	}
	rt, err := cluster.New(lc.topo, tr, cluster.Options{
		AttemptTimeout: 2 * time.Second,
		RetryBackoff:   5 * time.Millisecond,
		HedgeAfter:     25 * time.Millisecond,
		Partial:        cluster.PartialServe,
		EjectAfter:     3,
		ProbeInterval:  200 * time.Millisecond,
		Seed:           c.Seed,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	// Chaos phase A: SIGKILL one replica of shard 0 mid-run. The sibling
	// must absorb every query: zero errors, zero degraded answers.
	m0 := rt.Metrics()
	chaos := ClusterChaos{TotalQueries: 600, KillAtQuery: 200}
	lat := make([]time.Duration, 0, chaos.TotalQueries)
	var buf []vecmath.Neighbor
	for qi := 0; qi < chaos.TotalQueries; qi++ {
		if qi == chaos.KillAtQuery {
			if err := lc.kill(0, 0); err != nil {
				return err
			}
			fmt.Fprintf(w, "SIGKILLed shard 0 replica 0 at query %d\n", qi)
		}
		start := time.Now()
		var r cluster.Result
		buf, r, err = rt.SearchAppend(context.Background(), buf[:0], ds.Queries.Row(qi%ds.Queries.Rows), k, clusterL, nil)
		lat = append(lat, time.Since(start))
		if err != nil {
			chaos.Errors++
			err = nil
		} else if r.Degraded {
			chaos.Degraded++
		}
	}
	before := append([]time.Duration(nil), lat[:chaos.KillAtQuery]...)
	slices.Sort(before)
	chaos.P50BeforeMs = before[len(before)/2].Seconds() * 1000
	chaos.MaxAfterKillMs = slices.Max(lat[chaos.KillAtQuery:]).Seconds() * 1000
	chaos.Availability = 1 - float64(chaos.Errors)/float64(chaos.TotalQueries)
	m1 := rt.Metrics()
	chaos.Retries = m1.Retries - m0.Retries
	chaos.Hedges = m1.Hedges - m0.Hedges
	chaos.Ejections = m1.Ejections - m0.Ejections
	res.Chaos = chaos
	fmt.Fprintf(w, "chaos: %d queries, %d errors, %d degraded (availability %.4f)\n",
		chaos.TotalQueries, chaos.Errors, chaos.Degraded, chaos.Availability)
	fmt.Fprintf(w, "chaos: p50 before kill %.3f ms, max after kill %.3f ms, %d retries, %d hedges, %d ejections\n",
		chaos.P50BeforeMs, chaos.MaxAfterKillMs, chaos.Retries, chaos.Hedges, chaos.Ejections)

	// Chaos phase B: kill the sibling too, taking shard 0 fully down. The
	// serve-policy router answers every query degraded with shard 0 listed;
	// a fail-policy router refuses with ShardsDownError.
	if err := lc.kill(0, 1); err != nil {
		return err
	}
	fmt.Fprintln(w, "SIGKILLed shard 0 replica 1: shard 0 fully down")
	dp := ClusterDegradedPhase{Queries: 100, MissingShard: -1}
	got := make([][]int32, 0, dp.Queries)
	gt := make([][]int32, 0, dp.Queries)
	for qi := 0; qi < dp.Queries; qi++ {
		var r cluster.Result
		buf, r, err = rt.SearchAppend(context.Background(), buf[:0], ds.Queries.Row(qi%ds.Queries.Rows), k, clusterL, nil)
		if err != nil {
			dp.Errors++
			err = nil
			continue
		}
		if r.Degraded {
			dp.Degraded++
			if len(r.Missing) == 1 {
				dp.MissingShard = r.Missing[0]
			}
			ids := make([]int32, len(buf))
			for i, nb := range buf {
				ids[i] = nb.ID
			}
			got = append(got, ids)
			gt = append(gt, ds.GT[qi%ds.Queries.Rows])
		}
	}
	if len(got) > 0 {
		dp.Recall = dataset.MeanRecall(got, gt, k)
	}
	failRt, err := cluster.New(lc.topo, tr, cluster.Options{
		AttemptTimeout: time.Second,
		RetryBackoff:   2 * time.Millisecond,
		Partial:        cluster.PartialFail,
		Seed:           c.Seed,
	})
	if err != nil {
		return err
	}
	defer failRt.Close()
	var sde *cluster.ShardsDownError
	_, _, ferr := failRt.SearchAppend(context.Background(), nil, ds.Queries.Row(0), k, clusterL, nil)
	dp.FailPolicyErr = errors.As(ferr, &sde)
	res.DegradedPhase = dp
	fmt.Fprintf(w, "degraded phase: %d/%d answered degraded (missing shard %d), recall %.4f over survivors; fail policy errored: %v\n",
		dp.Degraded, dp.Queries, dp.MissingShard, dp.Recall, dp.FailPolicyErr)

	if err := writeRecord(w, "BENCH_cluster.json", res); err != nil {
		return err
	}
	if chaos.Errors > 0 || chaos.Degraded > 0 {
		return fmt.Errorf("bench: replica SIGKILL cost %d failed and %d degraded queries, want 0 and 0", chaos.Errors, chaos.Degraded)
	}
	if dp.Errors > 0 || dp.Degraded != dp.Queries || dp.MissingShard != 0 || !dp.FailPolicyErr {
		return fmt.Errorf("bench: shard 0 down broke the degraded contract: %+v", dp)
	}
	return nil
}
