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
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/vecmath"
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
	bufs         sync.Pool // *[]vecmath.Neighbor merge buffers
}

func newRouterServer(rt *cluster.Router, defaultK, defaultL, maxL int) *routerServer {
	return &routerServer{rt: rt, defaultK: defaultK, defaultL: defaultL, maxL: maxL}
}

func (s *routerServer) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /search", s.handleSearch)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

type searchRequest struct {
	Query []float32 `json:"query"`
	K     int       `json:"k"`
	L     int       `json:"l"`
	// Filter is forwarded verbatim to every shard server; each backend
	// compiles it against its own metadata store (nsgserve's "filter" field).
	Filter json.RawMessage `json:"filter,omitempty"`
}

// searchResponse is nsgserve's response shape plus the completeness
// annotation: clients that ignore the extra fields keep working, clients
// that care can see exactly which shards a degraded answer is missing.
type searchResponse struct {
	IDs      []int32   `json:"ids"`
	Dists    []float32 `json:"dists"`
	Degraded bool      `json:"degraded,omitempty"`
	Missing  []int     `json:"missing_shards,omitempty"`
}

// maxBodyBytes mirrors nsgserve's request-body cap.
const maxBodyBytes = 8 << 20

func (s *routerServer) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Query) == 0 {
		httpError(w, http.StatusBadRequest, "query must be non-empty")
		return
	}
	if req.K <= 0 {
		req.K = s.defaultK
	}
	if req.L <= 0 {
		req.L = s.defaultL
	}
	if req.K > s.maxL || req.L > s.maxL {
		httpError(w, http.StatusBadRequest, "k %d / l %d exceed the router limit %d", req.K, req.L, s.maxL)
		return
	}
	buf, _ := s.bufs.Get().(*[]vecmath.Neighbor)
	if buf == nil {
		buf = new([]vecmath.Neighbor)
	}
	start := time.Now()
	ns, res, err := s.rt.SearchAppend(r.Context(), (*buf)[:0], req.Query, req.K, req.L, req.Filter)
	*buf = ns
	if err != nil {
		s.bufs.Put(buf)
		var sde *cluster.ShardsDownError
		if errors.As(err, &sde) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]any{
				"error":          err.Error(),
				"missing_shards": sde.Shards,
			})
			return
		}
		// A backend's 4xx is the client's mistake (unknown filter column,
		// wrong dimension): hand it back as the backend worded it.
		var re *cluster.ReplicaError
		if errors.As(err, &re) {
			httpError(w, re.Status, "%s", re.Msg)
			return
		}
		httpError(w, http.StatusServiceUnavailable, "search: %v", err)
		return
	}
	resp := searchResponse{
		IDs:      make([]int32, len(ns)),
		Dists:    make([]float32, len(ns)),
		Degraded: res.Degraded,
		Missing:  res.Missing,
	}
	for i, n := range ns {
		resp.IDs[i] = n.ID
		resp.Dists[i] = n.Dist
	}
	s.bufs.Put(buf)
	s.queries.Add(1)
	s.searchMicros.Add(uint64(time.Since(start).Microseconds()))
	writeJSON(w, resp)
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
	writeJSON(w, resp)
}

// handleHealthz is liveness only; a router with every backend down is still
// a live process that should not be restarted.
func (s *routerServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

// handleReadyz reports whether this router can currently answer under its
// partial policy: fail needs every shard covered by an admitted replica,
// serve needs at least one shard covered.
func (s *routerServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	full, partial := s.rt.Ready()
	ok := full
	if s.rt.Partial() == cluster.PartialServe {
		ok = partial
	}
	if !ok {
		httpError(w, http.StatusServiceUnavailable, "insufficient healthy replicas (full=%v partial=%v)", full, partial)
		return
	}
	writeJSON(w, map[string]string{"status": "ready"})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("nsgrouter: encode response: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
