// Package cluster implements the replicated network serving tier: a router
// that fans each query out to N shards × R replicas of nsgserve processes
// and merges the per-shard answers exactly as the in-process fan-out does.
// This is the deployment shape of the paper's production systems — Taobao's
// e-commerce search serves its partitioned NSGs from a fleet, not one
// process — where a single slow or dead node must cost a retry, never the
// service.
//
// Each per-shard call is made robust independently: per-attempt timeouts,
// retry with exponential backoff and jitter rotating across replicas,
// optional hedged second requests after a latency threshold (first response
// wins, the loser is canceled via its context), and active health checking
// that ejects a replica after consecutive failures and probes it back in.
// When every replica of a shard is down the router degrades by policy:
// PartialFail refuses the query (HTTP 503 at the command layer) while
// PartialServe answers from the surviving shards with the result flagged
// degraded and the missing shards listed — recall degrades smoothly instead
// of availability going to zero.
//
// All network calls go through the Transport interface; FaultTransport
// wraps any Transport with per-replica injected faults (error rates, added
// latency, hangs, a kill switch) so every failure path has deterministic
// unit tests, and cmd/bench -exp cluster runs the same router against real
// SIGKILLed processes.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vecmath"
)

// Topology is the router's static cluster layout: an ordered list of shards,
// each served by one or more interchangeable replicas. Replicas of a shard
// must serve the same bundle; shards must partition the corpus.
type Topology struct {
	Shards []Shard `json:"shards"`
}

// Shard names the replicas serving one partition of the corpus.
type Shard struct {
	// Replicas are the shard's server addresses (host:port). All replicas
	// serve the same shard bundle and are interchangeable.
	Replicas []string `json:"replicas"`
	// IDOffset is added to the shard's returned (shard-local) ids to
	// recover global ids; shards built over contiguous row ranges of one
	// corpus set it to their range start.
	IDOffset int32 `json:"id_offset,omitempty"`
}

// Validate checks the topology is servable: at least one shard, each with
// at least one replica.
func (t Topology) Validate() error {
	if len(t.Shards) == 0 {
		return fmt.Errorf("cluster: topology has no shards")
	}
	for si, sh := range t.Shards {
		if len(sh.Replicas) == 0 {
			return fmt.Errorf("cluster: shard %d has no replicas", si)
		}
		for ri, addr := range sh.Replicas {
			if addr == "" {
				return fmt.Errorf("cluster: shard %d replica %d has an empty address", si, ri)
			}
		}
	}
	return nil
}

// LoadTopology reads a topology JSON file:
//
//	{"shards": [
//	  {"replicas": ["127.0.0.1:8081", "127.0.0.1:8082"], "id_offset": 0},
//	  {"replicas": ["127.0.0.1:8083", "127.0.0.1:8084"], "id_offset": 4000}
//	]}
func LoadTopology(path string) (Topology, error) {
	var t Topology
	blob, err := os.ReadFile(path)
	if err != nil {
		return t, fmt.Errorf("cluster: %w", err)
	}
	if err := json.Unmarshal(blob, &t); err != nil {
		return t, fmt.Errorf("cluster: parse topology %s: %w", path, err)
	}
	return t, t.Validate()
}

// PartialPolicy decides what a query gets when at least one shard has no
// reachable replica.
type PartialPolicy int

const (
	// PartialFail refuses the query: correctness over availability.
	PartialFail PartialPolicy = iota
	// PartialServe answers from the surviving shards, flagging the result
	// degraded and listing the missing shards: availability over
	// completeness, with the gap explicit.
	PartialServe
)

// ParsePartialPolicy parses the -partial flag values "fail" and "serve".
func ParsePartialPolicy(s string) (PartialPolicy, error) {
	switch s {
	case "fail":
		return PartialFail, nil
	case "serve":
		return PartialServe, nil
	}
	return PartialFail, fmt.Errorf("cluster: unknown partial policy %q (want fail or serve)", s)
}

func (p PartialPolicy) String() string {
	if p == PartialServe {
		return "serve"
	}
	return "fail"
}

// Options tunes the router's robustness machinery. The zero value gets
// sensible defaults from fillDefaults.
type Options struct {
	// AttemptTimeout bounds each individual replica call (default 2s).
	AttemptTimeout time.Duration
	// MaxAttempts is the total calls one shard query may spend across
	// replicas, counting the first (default 2 per replica, at least 3).
	MaxAttempts int
	// RetryBackoff is the base delay before the second attempt; it doubles
	// per retry (capped at maxBackoff) and is jittered to avoid retry
	// synchronization across concurrent queries (default 5ms).
	RetryBackoff time.Duration
	// HedgeAfter, when positive, fires a second request to the next
	// replica if the primary has not answered within this threshold; the
	// first success wins and the loser is canceled. 0 disables hedging.
	HedgeAfter time.Duration
	// Partial is the degradation policy when a whole shard is down.
	Partial PartialPolicy
	// EjectAfter ejects a replica after this many consecutive failures
	// (default 3). Ejected replicas are retried last and readmitted by the
	// first success, from queries or probes.
	EjectAfter int
	// ProbeInterval is the active health checker's cadence; <= 0 leaves
	// probing to the caller (tests use ProbeNow).
	ProbeInterval time.Duration
	// Seed makes backoff jitter deterministic in tests (0 means 1).
	Seed int64
}

// maxBackoff caps the exponential retry backoff.
const maxBackoff = 500 * time.Millisecond

func (o *Options) fillDefaults(maxReplicas int) {
	if o.AttemptTimeout <= 0 {
		o.AttemptTimeout = 2 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 2 * maxReplicas
		if o.MaxAttempts < 3 {
			o.MaxAttempts = 3
		}
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 5 * time.Millisecond
	}
	if o.EjectAfter <= 0 {
		o.EjectAfter = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Router fans queries across a replicated cluster. Safe for concurrent use.
type Router struct {
	topo   Topology
	tr     Transport
	opts   Options
	shards []*shardState

	// scratch pools fan-out state so the response-side merge reuses the
	// same zero-alloc concatenate-sort-truncate path as the in-process
	// fan-out (vecmath.MergeInto).
	scratch sync.Pool

	met metrics

	rngMu sync.Mutex
	rng   *rand.Rand

	probeStop chan struct{}
	probeDone chan struct{}
	closeOnce sync.Once
}

// metrics are the router's lifetime counters (atomics; see Metrics).
type metrics struct {
	queries, attempts, retries   atomic.Uint64
	hedges, hedgeWins            atomic.Uint64
	shardFailures, failedQueries atomic.Uint64
	degraded                     atomic.Uint64
	ejections, readmits          atomic.Uint64
}

// Metrics is a snapshot of the router's lifetime counters.
type Metrics struct {
	Queries       uint64 `json:"queries"`        // Search calls
	Attempts      uint64 `json:"attempts"`       // replica calls launched (incl. hedges)
	Retries       uint64 `json:"retries"`        // attempts after the first, per shard query
	Hedges        uint64 `json:"hedges"`         // hedged second requests fired
	HedgeWins     uint64 `json:"hedge_wins"`     // hedges that answered first
	ShardFailures uint64 `json:"shard_failures"` // shard queries that exhausted all attempts
	FailedQueries uint64 `json:"failed_queries"` // Search calls that returned an error
	Degraded      uint64 `json:"degraded"`       // Search calls answered degraded
	Ejections     uint64 `json:"ejections"`      // replica ejection events
	Readmits      uint64 `json:"readmits"`       // ejected replicas probed/called back in
}

// Metrics returns a snapshot of the router's counters.
func (r *Router) Metrics() Metrics {
	return Metrics{
		Queries:       r.met.queries.Load(),
		Attempts:      r.met.attempts.Load(),
		Retries:       r.met.retries.Load(),
		Hedges:        r.met.hedges.Load(),
		HedgeWins:     r.met.hedgeWins.Load(),
		ShardFailures: r.met.shardFailures.Load(),
		FailedQueries: r.met.failedQueries.Load(),
		Degraded:      r.met.degraded.Load(),
		Ejections:     r.met.ejections.Load(),
		Readmits:      r.met.readmits.Load(),
	}
}

// New builds a router over the topology and transport. When
// opts.ProbeInterval is positive the active health checker starts
// immediately; call Close to stop it.
func New(topo Topology, tr Transport, opts Options) (*Router, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	maxReplicas := 0
	for _, sh := range topo.Shards {
		if len(sh.Replicas) > maxReplicas {
			maxReplicas = len(sh.Replicas)
		}
	}
	opts.fillDefaults(maxReplicas)
	r := &Router{topo: topo, tr: tr, opts: opts, rng: rand.New(rand.NewSource(opts.Seed))}
	r.shards = make([]*shardState, len(topo.Shards))
	for si, sh := range topo.Shards {
		r.shards[si] = newShardState(sh.Replicas)
	}
	if opts.ProbeInterval > 0 {
		r.probeStop = make(chan struct{})
		r.probeDone = make(chan struct{})
		go r.probeLoop()
	}
	return r, nil
}

// Close stops the health prober (if running). The router may still be
// searched afterwards; only active probing stops.
func (r *Router) Close() {
	r.closeOnce.Do(func() {
		if r.probeStop != nil {
			close(r.probeStop)
			<-r.probeDone
		}
	})
}

// Shards returns the number of shards in the topology.
func (r *Router) Shards() int { return len(r.topo.Shards) }

// Partial returns the router's configured degradation policy.
func (r *Router) Partial() PartialPolicy { return r.opts.Partial }

// ShardsDownError reports the shards that had no reachable replica when a
// query could not be (fully) served under the fail policy.
type ShardsDownError struct {
	Shards []int // topology indexes
}

func (e *ShardsDownError) Error() string {
	return fmt.Sprintf("cluster: no reachable replica for shard(s) %v", e.Shards)
}

// Result annotates one query's answer with its completeness: a degraded
// result covers only the surviving shards named by Missing's complement.
type Result struct {
	// Degraded is true when at least one shard contributed nothing (only
	// possible under PartialServe; PartialFail returns an error instead).
	Degraded bool `json:"degraded,omitempty"`
	// Missing lists the topology indexes of shards that contributed no
	// results.
	Missing []int `json:"missing_shards,omitempty"`
}

// fanState is one query's pooled fan-out scratch: the request, per-shard
// replies, neighbor buffers (global ids) and errors, the surviving-list
// view, and the merge buffer vecmath.MergeInto recycles.
type fanState struct {
	req    SearchRequest
	wg     sync.WaitGroup
	resps  []SearchResponse
	bufs   [][]vecmath.Neighbor
	errs   []error
	lists  [][]vecmath.Neighbor
	merged []vecmath.Neighbor
	order  [][]int // per-shard replica-order scratch
}

func (r *Router) getFan() *fanState {
	if f, _ := r.scratch.Get().(*fanState); f != nil {
		return f
	}
	n := len(r.shards)
	return &fanState{
		resps: make([]SearchResponse, n),
		bufs:  make([][]vecmath.Neighbor, n),
		errs:  make([]error, n),
		lists: make([][]vecmath.Neighbor, 0, n),
		order: make([][]int, n),
	}
}

func (r *Router) putFan(f *fanState) {
	f.req = SearchRequest{}
	r.scratch.Put(f)
}

// SearchAppend fans the query out to every shard, merges the per-shard
// answers by distance and appends the k nearest overall to dst (pass a
// reused slice truncated to [:0]), with the result's completeness
// annotation; the merge side reuses pooled buffers via the same vecmath
// merge hook as the in-process fan-out. filter is an opaque predicate
// clause forwarded to every shard server (nil means unfiltered): each
// backend guarantees its results pass it, and merging preserves that.
// Every shard gets l unchanged, to split across its own shards. The caller
// searches the last shard itself; a goroutine each takes the others.
//
// Under PartialFail a down shard yields a *ShardsDownError; under
// PartialServe it yields a degraded result — unless no shard at all is
// reachable, which is an error under either policy. A clause (or query)
// the backends refuse with a 4xx is the caller's error, not the cluster's:
// it comes back as a *ReplicaError under either policy, unretried and with
// no replica's health touched.
func (r *Router) SearchAppend(ctx context.Context, dst []vecmath.Neighbor, vec []float32, k, l int, filter []byte) ([]vecmath.Neighbor, Result, error) {
	r.met.queries.Add(1)
	f := r.getFan()
	// One request serves every shard (and every retry/hedge within it).
	f.req = SearchRequest{Query: vec, K: k, L: l, Filter: filter}
	last := len(r.shards) - 1
	f.wg.Add(last)
	for si := range last {
		go func(si int) {
			defer f.wg.Done()
			f.bufs[si], f.errs[si] = r.searchShard(ctx, si, f.bufs[si][:0], f)
		}(si)
	}
	f.bufs[last], f.errs[last] = r.searchShard(ctx, last, f.bufs[last][:0], f)
	f.wg.Wait()

	var res Result
	lists := f.lists[:0]
	for si := range f.errs {
		if clientFault(f.errs[si]) {
			r.met.failedQueries.Add(1)
			err := f.errs[si]
			r.putFan(f)
			return dst, Result{}, err
		}
		if f.errs[si] != nil {
			res.Missing = append(res.Missing, si)
		} else {
			lists = append(lists, f.bufs[si])
		}
	}
	f.lists = lists[:0]
	if len(res.Missing) > 0 {
		switch {
		case len(lists) == 0:
			// Nothing to serve: an error under either policy.
			r.met.failedQueries.Add(1)
			r.putFan(f)
			return dst, Result{}, &ShardsDownError{Shards: res.Missing}
		case r.opts.Partial == PartialFail:
			r.met.failedQueries.Add(1)
			r.putFan(f)
			return dst, Result{}, &ShardsDownError{Shards: res.Missing}
		default:
			res.Degraded = true
			r.met.degraded.Add(1)
		}
	}
	dst, f.merged = vecmath.MergeInto(dst, f.merged, k, lists)
	r.putFan(f)
	return dst, res, nil
}

// searchShard answers one shard's part of a query robustly: rotate through
// replicas (healthy first), one per attempt, each under AttemptTimeout,
// with exponential jittered backoff between attempts and an optional hedged
// second request racing the primary. Returns the shard's neighbors with
// global ids appended to buf.
func (r *Router) searchShard(ctx context.Context, si int, buf []vecmath.Neighbor, f *fanState) ([]vecmath.Neighbor, error) {
	st := r.shards[si]
	order := st.order(f.order[si][:0])
	backoff := r.opts.RetryBackoff
	var lastErr error
	for attempt := 0; attempt < r.opts.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		if attempt > 0 {
			r.met.retries.Add(1)
			if !sleepCtx(ctx, r.jitter(backoff)) {
				break
			}
			if backoff < maxBackoff {
				backoff *= 2
			}
		}
		// The preference order is fixed for the query (healthy-first at
		// entry): attempts walk it in sequence, so a retry always moves to
		// a different replica before wrapping back to a failed one.
		primary := order[attempt%len(order)]
		hedge := -1
		if r.opts.HedgeAfter > 0 && len(order) > 1 {
			hedge = order[(attempt+1)%len(order)]
		}
		resp, err := r.attempt(ctx, si, primary, hedge, &f.req, &f.resps[si])
		if err == nil {
			off := r.topo.Shards[si].IDOffset
			for i := range resp.IDs {
				buf = append(buf, vecmath.Neighbor{ID: resp.IDs[i] + off, Dist: resp.Dists[i]})
			}
			f.order[si] = order[:0]
			return buf, nil
		}
		if clientFault(err) {
			// The replica is fine and would say the same again.
			f.order[si] = order[:0]
			return buf, fmt.Errorf("cluster: shard %d: %w", si, err)
		}
		lastErr = err
	}
	f.order[si] = order[:0]
	r.met.shardFailures.Add(1)
	return buf, fmt.Errorf("cluster: shard %d: attempts exhausted: %w", si, lastErr)
}

// attempt runs one retry-loop step: the primary replica call into resp,
// plus — when hedging is configured and the primary is silent past
// HedgeAfter — a hedged call to the next replica, with its own copy of the
// request and its own reply, since a loser may outlive the query. The
// first success wins (attempt returns its reply) and the loser is
// canceled through its context; if the primary errors before the hedge
// timer fires, the step returns immediately so the outer loop backs off.
//
// The primary runs inline on the shard goroutine and the hedge is an
// AfterFunc watchdog: on the common path (the primary answers before
// HedgeAfter) the hedging machinery costs one stopped timer — no extra
// goroutine, channel send, or scheduler handoff per call. A hedge that wins
// cancels the primary's context, which unblocks the inline call.
func (r *Router) attempt(ctx context.Context, si, primary, hedge int, req *SearchRequest, resp *SearchResponse) (*SearchResponse, error) {
	if hedge < 0 {
		r.met.attempts.Add(1)
		return resp, r.callReplica(ctx, si, primary, req, resp)
	}
	type outcome struct {
		resp *SearchResponse
		err  error
	}
	pctx, pCancel := context.WithCancel(ctx)
	defer pCancel()
	hctx, hCancel := context.WithCancel(ctx)
	defer hCancel()
	ch := make(chan outcome, 1)
	hreq := &SearchRequest{Query: slices.Clone(req.Query), K: req.K, L: req.L, Filter: slices.Clone(req.Filter)}
	timer := time.AfterFunc(r.opts.HedgeAfter, func() {
		r.met.hedges.Add(1)
		r.met.attempts.Add(1)
		hresp := new(SearchResponse)
		herr := r.callReplica(hctx, si, hedge, hreq, hresp)
		if herr == nil {
			pCancel() // hedge won: reel the blocked primary back in
		}
		ch <- outcome{hresp, herr}
	})
	r.met.attempts.Add(1)
	err := r.callReplica(pctx, si, primary, req, resp)
	// Stop reports false once the watchdog has started: a hedge is (or was)
	// in flight and owns the buffered channel slot.
	hedged := !timer.Stop()
	if err == nil {
		// A still-running hedge loser is canceled by the deferred hCancel;
		// its buffered send never blocks.
		return resp, nil
	}
	if !hedged {
		return nil, err
	}
	select {
	case out := <-ch:
		if out.err == nil {
			r.met.hedgeWins.Add(1)
			return out.resp, nil
		}
		// Both sides failed. The primary's error names the root cause
		// unless the primary was merely canceled from above.
		if errors.Is(err, context.Canceled) {
			return nil, out.err
		}
		return nil, err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// callReplica performs one transport call into resp under the per-attempt
// timeout, as a deadline, feeding the health tracker: a success readmits, a
// genuine failure (including an attempt timeout) advances the ejection
// streak. A cancellation from above — the query finished elsewhere or a
// hedge winner canceled this loser — is not the replica's fault and is not
// recorded, and neither is a 4xx the replica answered a bad request with.
func (r *Router) callReplica(ctx context.Context, si, ri int, req *SearchRequest, resp *SearchResponse) error {
	st := r.shards[si]
	addr := r.topo.Shards[si].Replicas[ri]
	err := r.tr.Search(ctx, addr, time.Now().Add(r.opts.AttemptTimeout), req, resp)
	if err == nil {
		if st.recordSuccess(ri) {
			r.met.readmits.Add(1)
		}
		return nil
	}
	if errors.Is(err, context.Canceled) && ctx.Err() != nil {
		return err
	}
	if !clientFault(err) && st.recordFailure(ri, r.opts.EjectAfter) {
		r.met.ejections.Add(1)
	}
	return fmt.Errorf("replica %s: %w", addr, err)
}

// jitter spreads a backoff delay over [d/2, d) so concurrent retries do not
// synchronize into bursts against a recovering replica.
func (r *Router) jitter(d time.Duration) time.Duration {
	r.rngMu.Lock()
	j := r.rng.Int63n(int64(d)/2 + 1)
	r.rngMu.Unlock()
	return d/2 + time.Duration(j)
}

// sleepCtx sleeps d unless ctx finishes first; reports whether the full
// sleep happened.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
