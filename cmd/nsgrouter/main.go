// Command nsgrouter is the replicated-cluster front end: it routes queries
// across N shards x R replicas of nsgserve processes and merges the
// per-shard answers, reproducing the paper's production deployment shape
// (DEEP100M served as 16 parallel subset NSGs, Taobao's partitioned fleet)
// with the robustness a fleet needs — per-attempt timeouts, retry with
// backoff across replicas, optional request hedging, active health checks,
// and an explicit policy for shards with no replica left.
//
// Usage:
//
//	nsgrouter -topology topo.json -partial serve -hedge-after 20ms
//
// The topology file is static JSON (see internal/cluster.LoadTopology):
//
//	{"shards": [
//	  {"replicas": ["127.0.0.1:8081", "127.0.0.1:8082"], "id_offset": 0},
//	  {"replicas": ["127.0.0.1:8083", "127.0.0.1:8084"], "id_offset": 4000}
//	]}
//
// Endpoints:
//
//	POST /search  {"query": [...], "k": 10, "l": 60,
//	               "filter": {"col":"category","eq":"shoes"}}
//	              → {"ids": [...], "dists": [...]}; a degraded answer (only
//	              under -partial=serve) adds "degraded": true and
//	              "missing_shards": [...]. The optional "filter" clause is
//	              forwarded verbatim to every shard server, which compiles
//	              it against its own metadata store; a request the shard
//	              servers refuse (unknown column, wrong dimension) is
//	              answered with their 400 and message.
//	GET  /stats   → topology, partial policy, router counters, replica health
//	GET  /healthz → liveness (always 200 while the process runs)
//	GET  /readyz  → readiness under the configured policy: -partial=fail
//	              needs every shard covered, -partial=serve needs at least
//	              one
//
// When every replica of a shard is unreachable, -partial picks the
// behavior: "fail" answers 503 (correctness over availability), "serve"
// answers 200 from the surviving shards with the gap flagged. SIGINT or
// SIGTERM drains gracefully: /readyz flips to 503 and in-flight requests
// get up to -drain to finish.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "nsgrouter: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("nsgrouter", flag.ContinueOnError)
	addr := fs.String("addr", ":8090", "listen address")
	topoPath := fs.String("topology", "", "topology JSON file (required)")
	partial := fs.String("partial", "fail", "policy when a whole shard is down: fail (503) or serve (degraded 200)")
	attemptTimeout := fs.Duration("attempt-timeout", 2*time.Second, "per-replica call deadline")
	maxAttempts := fs.Int("retries", 0, "max replica calls per shard query (0 = 2 per replica)")
	backoff := fs.Duration("backoff", 5*time.Millisecond, "base retry backoff (doubles per retry, jittered)")
	hedgeAfter := fs.Duration("hedge-after", 0, "fire a hedged request to the next replica after this silence (0 = off)")
	ejectAfter := fs.Int("eject-after", 3, "consecutive failures before a replica is ejected")
	probeInterval := fs.Duration("probe-interval", time.Second, "active health-probe cadence (0 = off)")
	defaultK := fs.Int("k", 10, "default number of neighbors")
	searchL := fs.Int("l", 60, "default search pool size")
	maxL := fs.Int("maxl", 4096, "largest per-request pool size (and k) accepted")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
	seed := fs.Int64("seed", 1, "RNG seed for backoff jitter")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *topoPath == "" {
		return fmt.Errorf("-topology is required")
	}
	topo, err := cluster.LoadTopology(*topoPath)
	if err != nil {
		return err
	}
	policy, err := cluster.ParsePartialPolicy(*partial)
	if err != nil {
		return err
	}
	rt, err := cluster.New(topo, cluster.NewHTTPTransport(), cluster.Options{
		AttemptTimeout: *attemptTimeout,
		MaxAttempts:    *maxAttempts,
		RetryBackoff:   *backoff,
		HedgeAfter:     *hedgeAfter,
		Partial:        policy,
		EjectAfter:     *ejectAfter,
		ProbeInterval:  *probeInterval,
		Seed:           *seed,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	srv := newRouterServer(rt, *defaultK, *searchL, *maxL)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	replicas := 0
	for _, sh := range topo.Shards {
		replicas += len(sh.Replicas)
	}
	fmt.Fprintf(stdout, "routing %d shards (%d replicas), partial policy %q\n",
		len(topo.Shards), replicas, policy)
	fmt.Fprintf(stdout, "listening on %s\n", ln.Addr())
	hs := &http.Server{
		Handler:           srv.mux(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serve(ctx, hs, ln, srv, *drain, stdout)
}

// serve runs hs on ln until ctx is canceled, then drains: /readyz flips to
// 503 and in-flight requests get up to drain to finish.
func serve(ctx context.Context, hs *http.Server, ln net.Listener, srv *routerServer, drain time.Duration, stdout io.Writer) error {
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(stdout, "shutting down: draining in-flight requests (up to %v)\n", drain)
	srv.draining.Store(true)
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := hs.Shutdown(sctx)
	<-errCh
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	fmt.Fprintln(stdout, "bye")
	return nil
}

// routerServer is the HTTP surface over a cluster.Router.
type routerServer struct {
	rt       *cluster.Router
	defaultK int
	defaultL int
	// maxL bounds client-supplied k and l, mirroring nsgserve: the shard
	// servers size search scratch by the pool, so the router refuses what
	// its backends would refuse.
	maxL     int
	draining atomic.Bool

	queries      atomic.Uint64
	searchMicros atomic.Uint64
}

func newRouterServer(rt *cluster.Router, defaultK, defaultL, maxL int) *routerServer {
	return &routerServer{rt: rt, defaultK: defaultK, defaultL: defaultL, maxL: maxL}
}

func (s *routerServer) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /search", func(w http.ResponseWriter, r *http.Request) { cluster.ServeSearch(w, r, s.search) })
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// search answers POST /search through cluster.ServeSearch, as nsgserve
// does: the "filter" clause and l go to every shard server verbatim, and
// e.Resp is nsgserve's shape plus the completeness annotation, which names
// the shards a degraded answer is missing. A refusal is answered here and
// reported as false.
func (s *routerServer) search(w http.ResponseWriter, r *http.Request, e *cluster.Edge) bool {
	req := &e.Req
	if len(req.Query) == 0 {
		cluster.HTTPError(w, http.StatusBadRequest, "query must be non-empty")
		return false
	}
	if req.K <= 0 {
		req.K = s.defaultK
	}
	if req.L <= 0 {
		req.L = s.defaultL
	}
	if req.K > s.maxL || req.L > s.maxL {
		cluster.HTTPError(w, http.StatusBadRequest, "k %d / l %d exceed the router limit %d", req.K, req.L, s.maxL)
		return false
	}
	start := time.Now()
	ns, res, err := s.rt.SearchAppend(r.Context(), e.Neighbors[:0], req.Query, req.K, req.L, req.Filter)
	e.Neighbors = ns
	if err != nil {
		var sde *cluster.ShardsDownError
		if errors.As(err, &sde) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]any{
				"error":          err.Error(),
				"missing_shards": sde.Shards,
			})
			return false
		}
		// A backend's 4xx is the client's mistake (unknown filter column,
		// wrong dimension): hand it back as the backend worded it.
		var re *cluster.ReplicaError
		if errors.As(err, &re) {
			cluster.HTTPError(w, re.Status, "%s", re.Msg)
			return false
		}
		cluster.HTTPError(w, http.StatusServiceUnavailable, "search: %v", err)
		return false
	}
	for _, n := range ns {
		e.Resp.IDs = append(e.Resp.IDs, n.ID)
		e.Resp.Dists = append(e.Resp.Dists, n.Dist)
	}
	e.Resp.Result = res
	s.queries.Add(1)
	s.searchMicros.Add(uint64(time.Since(start).Microseconds()))
	return true
}

type statsResponse struct {
	Shards          int                       `json:"shards"`
	Replicas        int                       `json:"replicas"`
	Partial         string                    `json:"partial_policy"`
	Queries         uint64                    `json:"queries"`
	MeanSearchMicro float64                   `json:"mean_search_micros"`
	Router          cluster.Metrics           `json:"router"`
	Health          [][]cluster.ReplicaHealth `json:"health"`
}

func (s *routerServer) handleStats(w http.ResponseWriter, r *http.Request) {
	health := s.rt.Health()
	replicas := 0
	for _, sh := range health {
		replicas += len(sh)
	}
	q := s.queries.Load()
	resp := statsResponse{
		Shards:   s.rt.Shards(),
		Replicas: replicas,
		Partial:  s.rt.Partial().String(),
		Queries:  q,
		Router:   s.rt.Metrics(),
		Health:   health,
	}
	if q > 0 {
		resp.MeanSearchMicro = float64(s.searchMicros.Load()) / float64(q)
	}
	cluster.WriteJSON(w, resp)
}

// handleHealthz is liveness only; a router with every backend down is still
// a live process that should not be restarted.
func (s *routerServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	cluster.WriteJSON(w, map[string]string{"status": "ok"})
}

// handleReadyz reports whether this router can currently answer under its
// partial policy: fail needs every shard covered by an admitted replica,
// serve needs at least one shard covered.
func (s *routerServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		cluster.HTTPError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	full, partial := s.rt.Ready()
	ok := full
	if s.rt.Partial() == cluster.PartialServe {
		ok = partial
	}
	if !ok {
		cluster.HTTPError(w, http.StatusServiceUnavailable, "insufficient healthy replicas (full=%v partial=%v)", full, partial)
		return
	}
	cluster.WriteJSON(w, map[string]string{"status": "ready"})
}
