package bench

import (
	"context"
	"io"
	"os/exec"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/vecmath"
)

func TestBestOf(t *testing.T) {
	calls := 0
	d := bestOf(0, func() { calls++; time.Sleep(time.Millisecond) })
	if calls != 2 {
		t.Fatalf("bestOf with no budget ran f %d times, want 2", calls)
	}
	if d < time.Millisecond {
		t.Fatalf("bestOf returned %v, below the per-pass floor", d)
	}
	calls = 0
	start := time.Now()
	bestOf(5*time.Millisecond, func() { calls++; time.Sleep(time.Millisecond) })
	if el := time.Since(start); el < 5*time.Millisecond || calls > 5 {
		t.Fatalf("bestOf with a 5 ms budget ran a 1 ms f %d times in %v, want the budget filled and at most 5 runs", calls, el)
	}
}

// TestClusterKillOneReplica is the real-process smoke test: boot a 3x2
// cluster of nsgserve processes, SIGKILL one replica under query load
// (every query must still be answered completely via the sibling), then
// kill the sibling and check the serve policy degrades explicitly.
func TestClusterKillOneReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go tool unavailable: %v", err)
	}
	ds, err := dataset.SIFTLike(dataset.Config{N: 1200, Queries: 20, GTK: 10, Dim: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lc, err := startLocalCluster(io.Discard, ds, 3, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.stop()
	tr := cluster.NewHTTPTransport()
	if err := lc.waitReady(tr, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	rt, err := cluster.New(lc.topo, tr, cluster.Options{
		AttemptTimeout: 2 * time.Second,
		RetryBackoff:   2 * time.Millisecond,
		Partial:        cluster.PartialServe,
		EjectAfter:     2,
		ProbeInterval:  100 * time.Millisecond,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	const k = 5
	var buf []vecmath.Neighbor
	query := func(qi int) (cluster.Result, error) {
		var res cluster.Result
		var qerr error
		buf, res, qerr = rt.SearchAppend(context.Background(), buf[:0], ds.Queries.Row(qi%ds.Queries.Rows), k, 40, nil)
		return res, qerr
	}

	for qi := 0; qi < ds.Queries.Rows; qi++ {
		res, err := query(qi)
		if err != nil || res.Degraded {
			t.Fatalf("healthy cluster query %d: err=%v res=%+v", qi, err, res)
		}
		if len(buf) != k {
			t.Fatalf("healthy cluster query %d returned %d neighbors, want %d", qi, len(buf), k)
		}
	}

	// The acceptance gate: after SIGKILL of one replica, zero failed
	// queries — the sibling absorbs every one, results stay complete.
	if err := lc.kill(0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		res, err := query(i)
		if err != nil {
			t.Fatalf("query %d failed after single-replica SIGKILL: %v", i, err)
		}
		if res.Degraded {
			t.Fatalf("query %d degraded after single-replica SIGKILL: %+v", i, res)
		}
	}

	// Whole shard down: serve policy answers degraded, names shard 0, and
	// returns no ids from shard 0's row span.
	if err := lc.kill(0, 1); err != nil {
		t.Fatal(err)
	}
	shard0End := int32(ds.Base.Rows / 3)
	sawDegraded := false
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		res, err := query(0)
		if err != nil {
			t.Fatalf("serve-policy query errored with 2/3 shards up: %v", err)
		}
		if !res.Degraded {
			continue
		}
		if len(res.Missing) != 1 || res.Missing[0] != 0 {
			t.Fatalf("degraded result missing = %v, want [0]", res.Missing)
		}
		for _, nb := range buf {
			if nb.ID < shard0End {
				t.Fatalf("degraded result contains id %d from the dead shard 0", nb.ID)
			}
		}
		sawDegraded = true
		break
	}
	if !sawDegraded {
		t.Fatal("whole-shard kill never produced a degraded answer")
	}
}
