package cluster_test

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/clustertest"
)

func newTransport(tb testing.TB) *cluster.HTTPTransport {
	tr := cluster.NewHTTPTransport()
	tb.Cleanup(tr.CloseIdleConnections)
	return tr
}

// search is one Search with no deadline into a fresh answer.
func search(tr cluster.Transport, ctx context.Context, addr string, req *cluster.SearchRequest) (*cluster.SearchResponse, error) {
	resp := new(cluster.SearchResponse)
	if err := tr.Search(ctx, addr, time.Time{}, req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

func TestWireRoundTripReusesConnection(t *testing.T) {
	saw := make(chan cluster.SearchRequest, 3)
	fb := clustertest.Start(t, "", func(req *cluster.SearchRequest) ([]int32, []float32, error) {
		// req belongs to the stream: copy what outlives the call.
		saw <- cluster.SearchRequest{Query: slices.Clone(req.Query), K: req.K, L: req.L, Filter: slices.Clone(req.Filter)}
		return []int32{4, 2}, []float32{0.5, 1.5}, nil
	})
	tr := newTransport(t)
	req := &cluster.SearchRequest{Query: []float32{1, -2, 3.25}, K: 2, L: 40, Filter: []byte(`{"col":"c","eq":1}`)}
	for i := 0; i < 3; i++ {
		resp, err := search(tr, context.Background(), fb.URL, req) // scheme-prefixed address
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(resp.IDs, []int32{4, 2}) || !slices.Equal(resp.Dists, []float32{0.5, 1.5}) {
			t.Fatalf("response = %+v", resp)
		}
	}
	seen := <-saw
	if !slices.Equal(seen.Query, req.Query) || seen.K != 2 || seen.L != 40 || string(seen.Filter) != string(req.Filter) {
		t.Fatalf("backend saw %+v, sent %+v", seen, req)
	}
	if n := fb.Upgrades.Load(); n != 1 {
		t.Fatalf("3 sequential queries used %d connections, want 1", n)
	}
}

// TestWireContextEndsMidFlight: a caller's cancel (the hedge-loser path) and
// an attempt timeout both unblock a query stuck in the backend, return the
// context's error, and retire the connection — its stream still owes a reply,
// so the next query must not read that reply as its own.
func TestWireContextEndsMidFlight(t *testing.T) {
	for _, tc := range []struct {
		name string
		ctx  func(entered <-chan struct{}) (context.Context, context.CancelFunc)
		want error
	}{
		{"cancel", func(entered <-chan struct{}) (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			go func() { <-entered; cancel() }()
			return ctx, cancel
		}, context.Canceled},
		{"timeout", func(<-chan struct{}) (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 30*time.Millisecond)
		}, context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			entered := make(chan struct{}, 1)
			release := make(chan struct{})
			fb := clustertest.Start(t, "", func(req *cluster.SearchRequest) ([]int32, []float32, error) {
				if req.K == 99 {
					entered <- struct{}{}
					<-release
				}
				return []int32{int32(req.K)}, []float32{0}, nil
			})
			defer close(release)
			tr := newTransport(t)
			if _, err := search(tr, context.Background(), fb.Addr(), &cluster.SearchRequest{Query: []float32{1}, K: 1}); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := tc.ctx(entered)
			defer cancel()
			start := time.Now()
			_, err := search(tr, ctx, fb.Addr(), &cluster.SearchRequest{Query: []float32{1}, K: 99})
			if !errors.Is(err, tc.want) {
				t.Fatalf("stuck query returned %v, want %v", err, tc.want)
			}
			if el := time.Since(start); el > 2*time.Second {
				t.Fatalf("stuck query took %v to give up", el)
			}
			resp, err := search(tr, context.Background(), fb.Addr(), &cluster.SearchRequest{Query: []float32{1}, K: 2})
			if err != nil || !slices.Equal(resp.IDs, []int32{2}) {
				t.Fatalf("query after the abandoned one: %+v, %v (a reused stream would answer 99)", resp, err)
			}
			if n := fb.Upgrades.Load(); n != 2 {
				t.Fatalf("%d connections, want 2: the abandoned stream must not be reused", n)
			}
		})
	}
}

// TestWireRedialsAfterBackendRestart: the backend restarts between two
// queries, so the router's kept connection is dead. The transport redials
// inside the call — no failure is recorded against the replica and nothing is
// retried — where a backend that stays down is a failure as before.
func TestWireRedialsAfterBackendRestart(t *testing.T) {
	h := clustertest.Canned([]int32{0, 1, 2}, []float32{0, 1, 2})
	fb := clustertest.Start(t, "", h)
	addr := fb.Addr()
	tr := newTransport(t)
	rt, err := cluster.New(cluster.Topology{Shards: []cluster.Shard{{Replicas: []string{addr}}}}, tr,
		cluster.Options{AttemptTimeout: 2 * time.Second, MaxAttempts: 3, RetryBackoff: time.Millisecond, EjectAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	query := func() error {
		ns, _, err := rt.SearchAppend(context.Background(), nil, []float32{1}, 3, 10, nil)
		if err == nil && len(ns) != 3 {
			t.Fatalf("got %d neighbors, want 3", len(ns))
		}
		return err
	}
	if err := query(); err != nil {
		t.Fatal(err)
	}

	fb.Close()
	fb2 := clustertest.Start(t, addr, h)
	if err := query(); err != nil {
		t.Fatalf("query after the restart: %v", err)
	}
	if m, rh := rt.Metrics(), rt.Health()[0][0]; m.Retries != 0 || rh.Fails != 0 || !rh.Healthy {
		t.Fatalf("restart cost retries=%d fails=%d healthy=%v, want the redial to be free", m.Retries, rh.Fails, rh.Healthy)
	}
	if n := fb2.Upgrades.Load(); n != 1 {
		t.Fatalf("restarted backend accepted %d streams, want 1", n)
	}

	fb2.Close()
	if err := query(); err == nil {
		t.Fatal("query against a stopped backend succeeded")
	}
	if rh := rt.Health()[0][0]; rh.Fails == 0 {
		t.Fatalf("a backend that stays down recorded no failure: %+v", rh)
	}
}

// TestWireRejectsBrokenReplies scripts a backend that answers frames a
// correct one never would; each must be an error, never a shortened answer.
func TestWireRejectsBrokenReplies(t *testing.T) {
	le := binary.LittleEndian
	tenClaimed := le.AppendUint32([]byte{0}, 10)                   // kind 0, n = 10 ...
	tenClaimed = append(tenClaimed, make([]byte, 3*8)...)          // ... but 3 results' bytes
	cutShort := le.AppendUint32(nil, 5+8*10)                       // a frame of 85 bytes ...
	cutShort = append(cutShort, le.AppendUint32([]byte{0}, 10)...) // ... that ends after 5
	for name, reply := range map[string][]byte{
		"count-beyond-payload":  append(le.AppendUint32(nil, uint32(len(tenClaimed))), tenClaimed...),
		"stream-ends-mid-frame": cutShort,
		"unknown-kind":          {1, 0, 0, 0, 7},
		"empty-frame":           {0, 0, 0, 0},
	} {
		t.Run(name, func(t *testing.T) {
			mux := http.NewServeMux()
			mux.HandleFunc("GET "+cluster.WirePath, func(w http.ResponseWriter, r *http.Request) {
				conn, err := cluster.AcceptWire(w, r)
				if err != nil {
					return
				}
				defer conn.Close()
				var head [4]byte
				if _, err := io.ReadFull(conn, head[:]); err != nil {
					return
				}
				io.CopyN(io.Discard, conn, int64(le.Uint32(head[:])))
				conn.Write(reply)
			})
			ts := httptest.NewServer(mux)
			defer ts.Close()
			tr := newTransport(t)
			resp, err := search(tr, context.Background(), ts.URL, &cluster.SearchRequest{Query: []float32{1}, K: 10})
			if err == nil {
				t.Fatalf("broken reply decoded as %+v", resp)
			}
			var re *cluster.ReplicaError
			if errors.As(err, &re) {
				t.Fatalf("a broken reply is a transport fault, not the replica's refusal: %v", err)
			}
		})
	}
}

// TestWireNeedsAnUpgradingBackend: a replica that does not answer 101 — an
// nsgserve from an older tree, or not one at all — is a failed replica, and
// the error says why.
func TestWireNeedsAnUpgradingBackend(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	defer ts.Close()
	_, err := search(newTransport(t), context.Background(), ts.URL, &cluster.SearchRequest{Query: []float32{1}, K: 1})
	if err == nil || !strings.Contains(err.Error(), "did not upgrade to "+cluster.WireProtocol) || !strings.Contains(err.Error(), "404") {
		t.Fatalf("error = %v, want it to name the missing upgrade and the status", err)
	}
}

// TestWireConcurrentQueries shares one transport between goroutines: every
// answer must belong to its own question.
func TestWireConcurrentQueries(t *testing.T) {
	fb := clustertest.Start(t, "", func(req *cluster.SearchRequest) ([]int32, []float32, error) {
		return []int32{int32(req.K)}, []float32{req.Query[0]}, nil
	})
	tr := newTransport(t)
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ { // more than the idle pool keeps
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := g*1000 + i + 1
				resp, err := search(tr, context.Background(), fb.Addr(), &cluster.SearchRequest{Query: []float32{float32(k)}, K: k})
				if err != nil || len(resp.IDs) != 1 || resp.IDs[0] != int32(k) || resp.Dists[0] != float32(k) {
					t.Errorf("goroutine %d query %d: %+v, %v", g, i, resp, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestClientFaultIsNotTheReplicasFault: a 4xx from the backends fails the
// query with their *ReplicaError at once — no retry, no failure recorded, no
// ejection — under either partial policy; a 5xx keeps the retry-and-eject
// treatment of any replica fault.
func TestClientFaultIsNotTheReplicasFault(t *testing.T) {
	fb := clustertest.Start(t, "", func(req *cluster.SearchRequest) ([]int32, []float32, error) {
		switch string(req.Filter) {
		case "bad-column":
			return nil, nil, cluster.BadRequest("filter: unknown column %q", "nope")
		case "broken":
			return nil, nil, errors.New("shard file unreadable")
		}
		return []int32{0}, []float32{1}, nil
	})
	topo := cluster.Topology{Shards: []cluster.Shard{{Replicas: []string{fb.Addr()}}, {Replicas: []string{fb.Addr()}, IDOffset: 100}}}
	for _, policy := range []cluster.PartialPolicy{cluster.PartialFail, cluster.PartialServe} {
		rt, err := cluster.New(topo, newTransport(t), cluster.Options{
			AttemptTimeout: 2 * time.Second, MaxAttempts: 3, RetryBackoff: time.Millisecond, EjectAfter: 2, Partial: policy,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		for i := 0; i < 3; i++ { // EjectAfter is 2: three would eject if they counted
			_, _, err = rt.SearchAppend(context.Background(), nil, []float32{1}, 1, 10, []byte("bad-column"))
			var re *cluster.ReplicaError
			if !errors.As(err, &re) || re.Status != http.StatusBadRequest || !strings.Contains(re.Msg, "unknown column") {
				t.Fatalf("policy %v: bad filter returned %v, want the backend's 400", policy, err)
			}
		}
		m := rt.Metrics()
		if m.Retries != 0 || m.Ejections != 0 || m.ShardFailures != 0 || m.FailedQueries != 3 {
			t.Fatalf("policy %v: metrics after bad filters = %+v", policy, m)
		}
		for _, sh := range rt.Health() {
			if !sh[0].Healthy || sh[0].Fails != 0 {
				t.Fatalf("policy %v: a client's bad filter was charged to the replica: %+v", policy, sh[0])
			}
		}
		if full, _ := rt.Ready(); !full {
			t.Fatalf("policy %v: router not ready after bad filters", policy)
		}

		if _, _, err = rt.SearchAppend(context.Background(), nil, []float32{1}, 1, 10, []byte("broken")); err == nil {
			t.Fatalf("policy %v: 5xx from every shard answered", policy)
		}
		var sde *cluster.ShardsDownError
		if !errors.As(err, &sde) {
			t.Fatalf("policy %v: 5xx returned %v, want *ShardsDownError", policy, err)
		}
		if m := rt.Metrics(); m.Retries == 0 || m.Ejections == 0 {
			t.Fatalf("policy %v: 5xx was not retried and ejected like a fault: %+v", policy, m)
		}
	}
}
