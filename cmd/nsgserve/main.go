// Command nsgserve serves a sharded NSG index over HTTP — the repository's
// production-shaped front end for the paper's distributed deployments
// (DEEP100M's 16 parallel subset NSGs, Taobao's 12/32-partition search).
//
// At startup the server either loads a saved sharded bundle or builds one
// from an .fvecs base file, then answers queries by fanning each one out
// across the index's shard-worker pool (one warm search context per
// worker, so steady-state queries do not allocate beyond the response).
//
// Usage:
//
//	nsgserve -data base.fvecs -shards 4            # build at startup
//	nsgserve -data base.fvecs -shards 4 -save idx.nsgd
//	nsgserve -data base.fvecs -shards 4 -quantize  # SQ8 serving path
//	nsgserve -index idx.nsgd                       # load a saved bundle
//	nsgserve -index idx.nsms -mmap                 # serve a mapped container
//
// With -mmap the index file (written by -save-mapped or SaveMapped) is
// served in place through a memory mapping: startup is O(file open) — pages
// fault in as queries touch them — and the server is read-only: /insert
// returns 403, searches are byte-identical to heap serving, and /stats
// reports RSS and page-fault counters so the paging behavior is observable.
// -mmap-noverify skips the open-time checksum pass on trusted storage.
//
// Endpoints:
//
//	POST /search  {"query": [...], "k": 10, "l": 60, "stats": true,
//	               "filter": {"col":"category","eq":"shoes"}}
//	              → {"ids": [...], "dists": [...], "hops": h, "dist_comps": c}
//	POST /search/batch  {"queries": [[...], ...], "k": 10, "l": 60,
//	               "filter": {...}}
//	              → {"results": [{"ids": [...], "dists": [...]}, ...]}
//
// The optional "filter" clause restricts results to points whose metadata
// passes a predicate (equality, range, set membership, tag containment,
// and/or nesting — the grammar is documented on nsg.UnmarshalPredicate).
// It requires the served bundle to carry a metadata store; /stats lists the
// available columns as meta_cols.
//
//	POST /insert  {"vector": [...]} → {"id": n, "n": total}
//	GET  /stats   → index shape, per-shard sizes, serving + delta counters
//	GET  /healthz → liveness: {"status":"ok"} while the process can answer
//	GET  /readyz  → readiness: 200 only while the index is loaded, the
//	               delta backlog is below -ready-max-pending, and the
//	               server is not draining — the signal routers and
//	               orchestrators use to steer traffic away
//	GET  /wire    → with "Upgrade: nsg-frame/1": 101, after which the
//	               connection carries nsgrouter's binary search frames
//	               (internal/cluster/frame.go) — the same validation and
//	               search as POST /search, without HTTP or JSON per query
//
// On SIGINT/SIGTERM the server drains gracefully: /readyz flips to 503,
// in-flight requests and frames get up to -drain to finish, idle router
// streams are closed, pending live inserts are
// flushed into the shard graphs, and — when -save or -index names a bundle
// path — the bundle is re-saved so acknowledged inserts survive the restart.
//
// The server runs the index in live-update mode (no lock anywhere on the
// request path): searches read the per-shard published snapshots, inserts
// append to the routed shard's delta buffer and return immediately — the
// inserted point is searchable from that moment — and each shard's
// background maintainer folds pending points into its graph before
// atomically publishing a fresh snapshot. A slow graph insertion therefore
// never stalls an in-flight search; /stats reports the delta depth and the
// age of the last publish so the maintenance lag is observable.
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

	"repro"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/mstore"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "nsgserve: %v\n", err)
		os.Exit(1)
	}
}

// parseQuantMode maps the -quantize flag to the library's mode constant,
// accepting the /stats wire names plus the obvious aliases.
func parseQuantMode(s string) (nsg.QuantMode, error) {
	switch s {
	case "", "none", "float32", "false":
		return nsg.QuantNone, nil
	case "sq8", "true":
		return nsg.QuantSQ8, nil
	default:
		return nsg.QuantNone, fmt.Errorf("unknown -quantize mode %q (want none or sq8)", s)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("nsgserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	indexPath := fs.String("index", "", "saved sharded bundle (.nsgd) to load")
	dataPath := fs.String("data", "", "base vectors (.fvecs) to build from")
	savePath := fs.String("save", "", "write the built bundle here before serving")
	mmapIndex := fs.Bool("mmap", false, "serve -index as a disk-resident mapped container (read-only; requires a SaveMapped file)")
	mmapNoVerify := fs.Bool("mmap-noverify", false, "with -mmap, skip the open-time checksum pass (trusted storage only)")
	saveMapped := fs.String("save-mapped", "", "write the built index as a disk-resident mapped container here before serving")
	shards := fs.Int("shards", 4, "number of shards when building")
	graphK := fs.Int("graphk", 20, "kNN graph neighbors per shard (paper's k)")
	buildL := fs.Int("buildl", 50, "build pool size (paper's l)")
	maxDegree := fs.Int("m", 30, "max out-degree (paper's m)")
	searchL := fs.Int("l", 60, "default search pool size")
	defaultK := fs.Int("k", 10, "default number of neighbors")
	maxL := fs.Int("maxl", 4096, "largest per-request pool size (and k) accepted")
	exact := fs.Bool("exact", false, "use the exact kNN graph builder")
	quantize := fs.String("quantize", "none", "compressed serving path: none or sq8 (4x fewer bytes per hop, with exact rerank)")
	maxPending := fs.Int("maxpending", 512, "delta depth that forces an immediate maintenance drain")
	publishEvery := fs.Duration("publish-interval", 100*time.Millisecond, "max delay before pending inserts are folded into a published snapshot")
	seed := fs.Int64("seed", 1, "RNG seed")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
	readyMaxPending := fs.Int("ready-max-pending", 0, "delta depth above which /readyz reports not ready (0 = 4x -maxpending)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *readyMaxPending <= 0 {
		*readyMaxPending = 4 * *maxPending
	}
	quantMode, err := parseQuantMode(*quantize)
	if err != nil {
		return err
	}

	idx, err := openIndex(openConfig{
		indexPath: *indexPath, dataPath: *dataPath, savePath: *savePath,
		saveMapped: *saveMapped, mmap: *mmapIndex, mmapNoVerify: *mmapNoVerify,
		opts: nsg.ShardedOptions{
			Shards: *shards,
			Shard: nsg.Options{
				GraphK: *graphK, BuildL: *buildL, MaxDegree: *maxDegree,
				SearchL: *searchL, ExactKNN: *exact, Quantize: quantMode, Seed: *seed,
			},
		},
	}, stdout)
	if err != nil {
		return err
	}

	// The maintainers' cadence. A mapped index is read-only — no delta
	// buffer, no maintainer; snapshot reads only.
	if !idx.ReadOnly() {
		if err := idx.EnableLiveUpdates(nsg.LiveOptions{MaxPending: *maxPending, PublishInterval: *publishEvery}); err != nil {
			return err
		}
	}
	srv := newServer(idx, *defaultK, *searchL, *maxL)
	srv.readyMaxPending = *readyMaxPending

	// Listen explicitly (rather than ListenAndServe) so -addr :0 works for
	// harnesses: the chosen port is printed before any request can arrive.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "serving %d vectors (dim %d) across %d shards\n",
		idx.Len(), idx.Dim(), idx.Shards())
	fmt.Fprintf(stdout, "listening on %s\n", ln.Addr())
	hs := &http.Server{
		Handler: srv.mux(),
		// Bounded header/body reads, response writes and idle keep-alives,
		// so stalled clients cannot pin connections and goroutines
		// indefinitely.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	// Re-save target for acknowledged inserts: an explicit -save wins, else
	// the loaded bundle is refreshed in place.
	persistPath := *savePath
	if persistPath == "" {
		persistPath = *indexPath
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serve(ctx, hs, ln, srv, *drain, persistPath, stdout)
}

// serve runs hs on ln until ctx is canceled (SIGINT/SIGTERM), then shuts
// down gracefully: /readyz flips to 503 so load balancers stop sending
// traffic, in-flight requests and router frames get up to drain to finish
// (idle router streams close at once), the live handle is flushed so every
// acknowledged insert is folded into the shard graphs, and
// when persistPath is set and inserts happened the bundle is re-saved so
// those inserts survive the restart.
func serve(ctx context.Context, hs *http.Server, ln net.Listener, srv *server, drain time.Duration, persistPath string, stdout io.Writer) error {
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		return err // listener failed before any shutdown was requested
	case <-ctx.Done():
	}
	fmt.Fprintf(stdout, "shutting down: draining in-flight requests (up to %v)\n", drain)
	srv.draining.Store(true)
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	// Shutdown neither closes nor waits for hijacked connections: the router
	// streams are stopped first, so no new frame starts while it runs, and
	// waited for after it.
	srv.streams.stop()
	shutdownErr := hs.Shutdown(sctx)
	<-errCh // hs.Serve has returned http.ErrServerClosed
	srv.streams.wait(sctx)

	// Fold every acknowledged insert into the shard graphs before exit; a
	// point acknowledged over /insert must not live only in a delta buffer.
	srv.idx.Flush()
	if persistPath != "" && srv.inserts.Load() > 0 {
		if err := srv.idx.Save(persistPath); err != nil {
			return fmt.Errorf("re-save %s on shutdown: %w", persistPath, err)
		}
		fmt.Fprintf(stdout, "saved %d live inserts to %s\n", srv.inserts.Load(), persistPath)
	}
	if shutdownErr != nil && !errors.Is(shutdownErr, context.DeadlineExceeded) {
		return shutdownErr
	}
	fmt.Fprintln(stdout, "bye")
	return nil
}

// openConfig gathers the startup flags that pick and prepare the index.
type openConfig struct {
	indexPath, dataPath  string
	savePath, saveMapped string
	mmap, mmapNoVerify   bool
	opts                 nsg.ShardedOptions
}

// openIndex loads a bundle (decoded to the heap, or mapped in place with
// -mmap) or builds one from an fvecs file, whichever the flags selected.
func openIndex(cfg openConfig, stdout io.Writer) (*nsg.ShardedIndex, error) {
	indexPath, dataPath, savePath, opts := cfg.indexPath, cfg.dataPath, cfg.savePath, cfg.opts
	switch {
	case indexPath != "" && dataPath != "":
		return nil, fmt.Errorf("pass either -index or -data, not both")
	case cfg.mmap && indexPath == "":
		return nil, fmt.Errorf("-mmap requires -index naming a mapped container")
	case indexPath != "":
		start := time.Now()
		var idx *nsg.ShardedIndex
		var err error
		if cfg.mmap {
			idx, err = nsg.OpenMappedSharded(indexPath, nsg.MapOptions{NoVerify: cfg.mmapNoVerify})
		} else {
			idx, err = nsg.LoadSharded(indexPath)
		}
		if err != nil {
			return nil, err
		}
		how := "loaded"
		if cfg.mmap {
			how = "mapped"
		}
		fmt.Fprintf(stdout, "%s %s in %v\n", how, indexPath, time.Since(start).Round(time.Millisecond))
		return idx, nil
	case dataPath != "":
		base, err := dataset.LoadFvecsFile(dataPath)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "building %d-shard index over %d vectors (dim %d)...\n",
			opts.Shards, base.Rows, base.Dim)
		start := time.Now()
		idx, err := nsg.BuildShardedFromFlat(base.Data, base.Dim, opts)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "built in %v\n", time.Since(start).Round(time.Millisecond))
		if savePath != "" {
			if err := idx.Save(savePath); err != nil {
				return nil, err
			}
			fmt.Fprintf(stdout, "saved bundle to %s\n", savePath)
		}
		if cfg.saveMapped != "" {
			if err := idx.SaveMapped(cfg.saveMapped); err != nil {
				return nil, err
			}
			fmt.Fprintf(stdout, "saved mapped container to %s\n", cfg.saveMapped)
		}
		return idx, nil
	default:
		return nil, fmt.Errorf("one of -index or -data is required")
	}
}

// server wraps the index with the HTTP surface and serving counters. The
// index serves in live-update mode, so handlers never take a lock:
// searches read published snapshots, inserts append to a delta buffer, and
// the maintenance lag between them is surfaced through /stats.
type server struct {
	idx      *nsg.ShardedIndex
	defaultK int
	defaultL int
	// maxL bounds the client-supplied k and l: search scratch is sized by
	// the pool and cached in the long-lived worker contexts, so an
	// unbounded request could permanently bloat (or OOM) the process.
	maxL int
	// readyMaxPending is the delta depth beyond which /readyz reports not
	// ready: the snapshots are lagging far behind the acknowledged inserts
	// and a router should prefer a fresher replica.
	readyMaxPending int
	// draining flips when graceful shutdown starts so /readyz turns traffic
	// away while in-flight requests finish.
	draining atomic.Bool

	queries atomic.Uint64
	inserts atomic.Uint64
	// searchMicros accumulates in-handler search latency for the /stats
	// mean; a production deployment would export a histogram instead.
	searchMicros atomic.Uint64

	// streams are the router connections upgraded on /wire, which the HTTP
	// server no longer tracks once hijacked.
	streams streamSet
}

// newServer wraps idx. Every index serves lock-free searches beside
// non-blocking inserts, and a mapped one refuses inserts, so the handlers
// need nothing enabled.
func newServer(idx *nsg.ShardedIndex, defaultK, defaultL, maxL int) *server {
	return &server{idx: idx, defaultK: defaultK, defaultL: defaultL, maxL: maxL, readyMaxPending: 4 * 512}
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /search", s.handleSearch)
	mux.HandleFunc("POST /search/batch", s.handleSearchBatch)
	mux.HandleFunc("POST /insert", s.handleInsert)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET "+cluster.WirePath, s.handleWire)
	return mux
}

type searchRequest struct {
	Query []float32 `json:"query"`
	K     int       `json:"k"`
	L     int       `json:"l"`
	Stats bool      `json:"stats"`
	// Filter is an optional predicate clause tree (see nsg.UnmarshalPredicate
	// for the grammar): {"col":"category","eq":"shoes"},
	// {"col":"price","range":[1000,4999]}, {"and":[...]}, {"or":[...]}.
	// Requires the served bundle to carry a metadata store.
	Filter json.RawMessage `json:"filter,omitempty"`
}

// compileFilter turns a request's raw filter clause into a compiled filter,
// or (nil, nil) when the request has none. Compilation is O(rows) per
// request; clients issuing many searches under one predicate should prefer
// /search/batch, which compiles once for the whole batch.
func (s *server) compileFilter(raw json.RawMessage) (*nsg.ShardedFilter, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	p, err := nsg.UnmarshalPredicate(raw)
	if err != nil {
		return nil, err
	}
	f, err := s.idx.CompileFilter(p)
	if err != nil {
		return nil, fmt.Errorf("filter: %w", err)
	}
	return f, nil
}

type searchResponse struct {
	IDs       []int32   `json:"ids"`
	Dists     []float32 `json:"dists"`
	Hops      int       `json:"hops,omitempty"`
	DistComps uint64    `json:"dist_comps,omitempty"`
}

// maxBodyBytes bounds request bodies before JSON decoding: a vector of the
// largest supported dimension is far under this, and without the cap a
// giant JSON array would be allocated in full before any validation runs.
const maxBodyBytes = 8 << 20

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	resp, err := s.search(&req)
	if err != nil {
		httpError(w, err.Status, "%s", err.Msg)
		return
	}
	writeJSON(w, resp)
}

// search validates and answers one query. It is the whole of a search
// request behind its decoding, shared by POST /search and the /wire frame
// loop, so both edges check, count and time a query identically. Zero k or l
// take the server's defaults.
func (s *server) search(req *searchRequest) (searchResponse, *cluster.ReplicaError) {
	if len(req.Query) != s.idx.Dim() {
		return searchResponse{}, cluster.BadRequest("query dim %d != index dim %d", len(req.Query), s.idx.Dim())
	}
	k, l := req.K, req.L
	if k <= 0 {
		k = s.defaultK
	}
	if l <= 0 {
		l = s.defaultL
	}
	if k > s.maxL || l > s.maxL {
		return searchResponse{}, cluster.BadRequest("k %d / l %d exceed the server limit %d", k, l, s.maxL)
	}
	flt, err := s.compileFilter(req.Filter)
	if err != nil {
		return searchResponse{}, cluster.BadRequest("%v", err)
	}
	start := time.Now()
	var resp searchResponse
	if req.Stats {
		ids, dists, st := s.idx.SearchFilteredWithStats(req.Query, k, l, flt)
		resp = searchResponse{IDs: ids, Dists: dists, Hops: st.Hops, DistComps: st.DistanceComputations}
	} else {
		ids, dists := s.idx.SearchFilteredWithPool(req.Query, k, l, flt)
		resp = searchResponse{IDs: ids, Dists: dists}
	}
	s.queries.Add(1)
	s.searchMicros.Add(uint64(time.Since(start).Microseconds()))
	return resp, nil
}

// handleWire upgrades a router's connection to the frame protocol and
// answers its frames until the router hangs up or the server drains.
func (s *server) handleWire(w http.ResponseWriter, r *http.Request) {
	s.serveWire(w, r, s.frameSearch)
}

// frameSearch answers one request frame with the search POST /search runs.
func (s *server) frameSearch(req *cluster.SearchRequest) ([]int32, []float32, error) {
	resp, err := s.search(&searchRequest{Query: req.Query, K: req.K, L: req.L, Filter: req.Filter})
	if err != nil {
		return nil, nil, err
	}
	return resp.IDs, resp.Dists, nil
}

// serveWire is handleWire over any frame handler (the drain test's blocks
// mid-search): upgrade, register the stream for shutdown, serve.
func (s *server) serveWire(w http.ResponseWriter, r *http.Request, h cluster.FrameHandler) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	conn, err := cluster.AcceptWire(w, r)
	if err != nil {
		return // AcceptWire has answered the peer
	}
	defer conn.Close()
	if !s.streams.add(conn) {
		return // drain began between the check above and the upgrade
	}
	defer s.streams.remove(conn)
	// A stream ends by the router closing it, a broken connection or drain's
	// read deadline; none of them is worth a log line.
	_ = cluster.ServeFrames(conn, h)
}

// streamSet tracks the upgraded router connections so graceful shutdown can
// end them: the HTTP server forgets a connection once it is hijacked.
type streamSet struct {
	mu      sync.Mutex
	stopped bool
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup
}

// add registers a stream, or reports false when the set has been stopped.
func (ss *streamSet) add(c net.Conn) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.stopped {
		return false
	}
	if ss.conns == nil {
		ss.conns = make(map[net.Conn]struct{})
	}
	ss.conns[c] = struct{}{}
	ss.wg.Add(1)
	return true
}

func (ss *streamSet) remove(c net.Conn) {
	ss.mu.Lock()
	delete(ss.conns, c)
	ss.mu.Unlock()
	ss.wg.Done()
}

// stop refuses new streams and ends every stream's reading: an idle stream's
// blocked read fails at once and its loop exits, while a stream inside a
// search is not reading — it writes its reply and exits on the read after.
func (ss *streamSet) stop() {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.stopped = true
	for c := range ss.conns {
		c.SetReadDeadline(time.Unix(1, 0))
	}
}

// wait returns once every stream has exited, closing the stragglers when ctx
// ends first.
func (ss *streamSet) wait(ctx context.Context) {
	done := make(chan struct{})
	go func() { ss.wg.Wait(); close(done) }()
	select {
	case <-done:
		return
	case <-ctx.Done():
	}
	ss.mu.Lock()
	for c := range ss.conns {
		c.Close()
	}
	ss.mu.Unlock()
	<-done
}

type batchSearchRequest struct {
	Queries [][]float32 `json:"queries"`
	K       int         `json:"k"`
	L       int         `json:"l"`
	// Filter applies one shared predicate to every query in the batch; it is
	// compiled once for the whole request.
	Filter json.RawMessage `json:"filter,omitempty"`
}

type batchSearchResponse struct {
	Results []searchResponse `json:"results"`
}

// maxBatchQueries bounds one /search/batch request: the batch is answered
// in full before the response streams, so an unbounded batch would hold
// all its results in memory at once.
const maxBatchQueries = 1024

// handleSearchBatch answers many queries in one request: one body decode,
// one filter compile, then SearchBatchFiltered's worker pool runs the same
// per-query search /search runs, GOMAXPROCS queries at a time. Results are
// byte-identical to issuing the queries one at a time against /search.
func (s *server) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	var req batchSearchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Queries) == 0 {
		httpError(w, http.StatusBadRequest, "queries must be non-empty")
		return
	}
	if len(req.Queries) > maxBatchQueries {
		httpError(w, http.StatusBadRequest, "%d queries exceed the batch limit %d", len(req.Queries), maxBatchQueries)
		return
	}
	for i, q := range req.Queries {
		if len(q) != s.idx.Dim() {
			httpError(w, http.StatusBadRequest, "query %d dim %d != index dim %d", i, len(q), s.idx.Dim())
			return
		}
	}
	if req.K <= 0 {
		req.K = s.defaultK
	}
	if req.L <= 0 {
		req.L = s.defaultL
	}
	if req.K > s.maxL || req.L > s.maxL {
		httpError(w, http.StatusBadRequest, "k %d / l %d exceed the server limit %d", req.K, req.L, s.maxL)
		return
	}
	flt, err := s.compileFilter(req.Filter)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	start := time.Now()
	res := s.idx.SearchBatchFiltered(req.Queries, req.K, req.L, 0, flt)
	resp := batchSearchResponse{Results: make([]searchResponse, len(res))}
	for i, r := range res {
		resp.Results[i] = searchResponse{IDs: r.IDs, Dists: r.Dists}
	}
	s.queries.Add(uint64(len(req.Queries)))
	// The whole batch's wall time is attributed once; /stats divides by the
	// query count, so the mean reflects per-query cost under batching.
	s.searchMicros.Add(uint64(time.Since(start).Microseconds()))
	writeJSON(w, resp)
}

type insertRequest struct {
	Vector []float32 `json:"vector"`
}

type insertResponse struct {
	ID int32 `json:"id"`
	N  int   `json:"n"`
}

func (s *server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req insertRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Vector) != s.idx.Dim() {
		httpError(w, http.StatusBadRequest, "vector dim %d != index dim %d", len(req.Vector), s.idx.Dim())
		return
	}
	if s.idx.ReadOnly() {
		httpError(w, http.StatusForbidden, "index is mapped read-only; restart without -mmap to accept inserts")
		return
	}
	// Non-blocking: Add appends to the routed shard's delta buffer; the
	// point is searchable when the response is written, and the graph work
	// happens on the maintainer goroutine, never stalling /search.
	id, err := s.idx.Add(req.Vector)
	n := s.idx.Len()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "insert: %v", err)
		return
	}
	s.inserts.Add(1)
	writeJSON(w, insertResponse{ID: id, N: n})
}

type statsResponse struct {
	N      int `json:"n"`
	Dim    int `json:"dim"`
	Shards int `json:"shards"`
	// Quantization names the serving representation: "float32" or "sq8"
	// (the compressed mode reranks with exact float32 distances).
	Quantization string `json:"quantization"`
	ReadOnly     bool   `json:"read_only"`
	// MetaCols lists the metadata columns available to "filter" clauses
	// (absent when the bundle carries no metadata store).
	MetaCols        []string `json:"meta_cols,omitempty"`
	ShardSizes      []int    `json:"shard_sizes"`
	IndexBytes      int64    `json:"index_bytes"`
	Queries         uint64   `json:"queries"`
	Inserts         uint64   `json:"inserts"`
	MeanSearchMicro float64  `json:"mean_search_micros"`
	// Process memory counters (zero off Linux): with -mmap these are the
	// observable cost of disk-resident serving — RSS grows as queries fault
	// index pages in, and major faults count reads that actually hit disk.
	RSSBytes    int64  `json:"rss_bytes"`
	MinorFaults uint64 `json:"minor_faults"`
	MajorFaults uint64 `json:"major_faults"`
	// Live-update maintenance: how many inserted points are still served
	// by the delta scan, how stale the oldest shard snapshot is, and how
	// many snapshot publishes/drained points the maintainers have done.
	DeltaDepth       int     `json:"delta_depth"`
	LastPublishAgeMs float64 `json:"last_publish_age_ms"`
	Publishes        uint64  `json:"publishes"`
	Drained          uint64  `json:"drained"`
}

// metaCols summarizes a metadata store's columns as "name:type" strings.
func metaCols(m *nsg.Metadata) []string {
	if m == nil {
		return nil
	}
	cols := m.Cols()
	out := make([]string, len(cols))
	for i, name := range cols {
		typ, _ := m.ColType(name)
		out[i] = name + ":" + typ.String()
	}
	return out
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.idx.Stats()
	ms := s.idx.MaintenanceStats()
	ps := mstore.ReadProcStats()
	q := s.queries.Load()
	resp := statsResponse{
		N: st.N, Dim: s.idx.Dim(), Shards: st.Shards, Quantization: s.idx.QuantMode().String(),
		ReadOnly:   s.idx.ReadOnly(),
		ShardSizes: st.ShardSizes,
		MetaCols:   metaCols(s.idx.Metadata()),
		IndexBytes: st.IndexBytes, Queries: q, Inserts: s.inserts.Load(),
		RSSBytes: ps.RSSBytes, MinorFaults: ps.MinorFaults, MajorFaults: ps.MajorFaults,
		DeltaDepth: ms.Pending,
		Publishes:  ms.Publishes,
		Drained:    ms.Drained,
	}
	if !resp.ReadOnly { // zero on a read-only index: nothing is ever published
		resp.LastPublishAgeMs = float64(time.Since(ms.LastPublish).Microseconds()) / 1000
	}
	if q > 0 {
		resp.MeanSearchMicro = float64(s.searchMicros.Load()) / float64(q)
	}
	writeJSON(w, resp)
}

// handleHealthz is pure liveness: the process is up and answering. It stays
// 200 even while draining or lagging — restarting the process would not
// help, so an orchestrator must not kill it over this endpoint.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: whether a router should send this replica
// traffic right now. The index is necessarily loaded once the mux exists;
// what can still go wrong is a draining shutdown or a delta backlog deep
// enough that the maintainers are falling behind the insert stream.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if ms := s.idx.MaintenanceStats(); ms.Pending > s.readyMaxPending {
		httpError(w, http.StatusServiceUnavailable,
			"delta backlog %d exceeds ready threshold %d", ms.Pending, s.readyMaxPending)
		return
	}
	writeJSON(w, map[string]string{"status": "ready"})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("nsgserve: encode response: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
