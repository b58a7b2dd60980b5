package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	nsg "repro"
	"repro/internal/vecmath"
	"repro/internal/vecmath/quant"
)

// The traced run: it runs stretches of the script without and with spans,
// and derives every per-layer metric from the spans, from counters the
// public API returns, and from microbenchmarks of the leaf kernels over the
// workload's own rows.

func (r *run) traced(b *built, res *result) error {
	set := res.set
	// Stretches of the script run turn about without and with spans, so
	// that the host's drift moves both alike. On a read-only system each
	// pair is the same ops twice. Where writes move the state a delete
	// cannot be replayed, so a pair is two consecutive stretches, taken
	// from the script's middle (reached by running the first half
	// unmeasured): there the state is the one the end-to-end medians see.
	const stretches = 4
	per := min(tracedOps, len(r.ops)/4) / stretches
	evolving := r.plan.script.deletes > 0
	at := 0
	if evolving {
		at = len(r.ops)/2 - stretches*per
		if _, _, _, err := r.timed(b.sys, 0, at, 1, nil); err != nil {
			return err
		}
	}
	tr := newTracer(8 * stretches * per)
	var plainWall, tracedWall time.Duration
	var calib []float64
	var before, after runtime.MemStats
	var mallocs, gcPauseNs uint64
	for i := 0; i < stretches; i++ {
		plain := r.ops[at : at+per]
		runtime.ReadMemStats(&before)
		w, c, _, err := r.timed(b.sys, at, at+per, 1, nil)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		gcPauseNs += after.PauseTotalNs - before.PauseTotalNs
		plainWall += w[0].wall
		calib = append(calib, c...)
		// The searches of a stretch in order: the k-th latency is the k-th
		// search op's. The plain ones feed the layers' sum check.
		k := 0
		for _, o := range plain {
			if o.kind == opSearch {
				r.untracedMs = append(r.untracedMs, w[0].searchMs[k])
				if r.reqs[o.arg].class == classPlain {
					r.untracedPlainMs = append(r.untracedPlainMs, w[0].searchMs[k])
				}
				k++
			}
		}
		if evolving {
			at += per
		}
		if w, _, _, err = r.timed(b.sys, at, at+per, 1, tr); err != nil {
			return err
		}
		tracedWall += w[0].wall
		at += per
	}
	set("harness.trace_overhead_ratio", tracedWall.Seconds()/plainWall.Seconds())
	set("harness.calib_ms", median(calib))
	if iqrShare(calib) > noisyCalibSpread {
		set("harness.noisy_host", 1)
	}
	set("nsg.build_s", b.buildSeconds)
	set("nsg.search_p95_ms", percentile(r.untracedMs, 95))
	set("nsg.search_p99_ms", percentile(r.untracedMs, 99))
	set("nsg.allocs_per_op", float64(mallocs)/float64(stretches*per))
	set("nsg.gc_pause_ms_total", float64(gcPauseNs)/1e6)

	if err := b.sys.layers(r, tr, set); err != nil {
		return err
	}
	set("error_ratio", float64(r.failed)/float64(r.attempted))
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.Name]; !ok {
			set(d.Name, 0)
		}
	}
	path := filepath.Join(r.cfg.dir, "out", "trace_"+r.plan.name+".jsonl")
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Printf("%s seed %d: %d spans of %d ops written to %s\n", r.plan.name, r.cfg.seed, len(tr.spans), stretches*per, path)
	return nil
}

// Kernel microbenchmarks. Each scores one query against rows picked at
// random from a matrix the size of the workload's own, so the gathers miss
// the caches the way a traversal's do.

const kernelBudget = 150 * time.Millisecond

var kernelSink float64

// gatherBench calls eval(row) on random rows for the budget and returns
// nanoseconds per call.
func gatherBench(rows int, eval func(row int) float64) float64 {
	r := rand.New(rand.NewSource(1))
	order := make([]int32, 1<<14)
	for i := range order {
		order[i] = int32(r.Intn(rows))
	}
	var sink float64
	evals := 0
	start := time.Now()
	for time.Since(start) < kernelBudget {
		for _, i := range order {
			sink += eval(int(i))
		}
		evals += len(order)
	}
	kernelSink = sink
	return float64(time.Since(start).Nanoseconds()) / float64(evals)
}

func float32Kernel(c *corpus) float64 {
	q := row(c.queries, 0)
	return gatherBench(c.n, func(i int) float64 { return float64(vecmath.L2(q, row(c.base, i))) })
}

// codeKernels times the SQ8 and int4 kernels over codes made from the base
// itself: its values are integers in [0,255], so a row is its own SQ8 code
// and its high nibbles are an int4 code.
func codeKernels(c *corpus) (sq8, int4 float64) {
	codes := make([]uint8, len(c.base))
	packed := make([]uint8, len(c.base)/2)
	for i, v := range c.base {
		codes[i] = uint8(v)
		packed[i/2] |= (uint8(v) >> 4) << (4 * (i % 2))
	}
	levels, levels4 := make([]int16, dim), make([]int16, dim)
	for j, v := range row(c.queries, 0) {
		levels[j], levels4[j] = int16(v), int16(v)>>4
	}
	sq8 = gatherBench(c.n, func(i int) float64 { return float64(quant.L2Levels(levels, codes[i*dim:(i+1)*dim])) })
	int4 = gatherBench(c.n, func(i int) float64 { return float64(quant.L2Levels4(levels4, packed[i*dim/2:(i+1)*dim/2])) })
	return sq8, int4
}

// streamGBps is the benchmark's own sequential-read roofline: the best of a
// few passes summing a buffer far larger than the caches.
func streamGBps() float64 {
	buf := make([]uint64, 32<<20/8)
	for i := range buf {
		buf[i] = uint64(i)
	}
	best := 0.0
	for pass := 0; pass < 4; pass++ {
		var s0, s1, s2, s3 uint64
		start := time.Now()
		for i := 0; i+4 <= len(buf); i += 4 {
			s0 += buf[i]
			s1 += buf[i+1]
			s2 += buf[i+2]
			s3 += buf[i+3]
		}
		d := time.Since(start)
		kernelSink += float64(s0 + s1 + s2 + s3)
		best = max(best, float64(len(buf)*8)/float64(d.Nanoseconds()))
	}
	return best
}

// layers for the in-process workloads.
func (s *libSystem) layers(r *run, tr *tracer, set func(string, float64)) error {
	bs := s.buildStats
	set("knngraph.build_s", bs.KNNGraph.Seconds())
	set("core.collect_s", bs.Collect.Seconds())
	set("core.interinsert_s", bs.InterInsert.Seconds())
	set("core.repair_s", bs.Repair.Seconds())
	set("core.flatten_s", bs.Flatten.Seconds())

	plainUs := median(tr.durations("core.search.plain"))
	set("core.plain_search_us", plainUs)

	// Work counts of the plain requests; they repeat exactly on the
	// read-only workloads.
	var hops, comps, plain float64
	for i := range r.reqs {
		if q := &r.reqs[i]; q.class == classPlain {
			_, _, st := s.idx.SearchWithStats(row(r.c.queries, q.query), topK, searchL)
			hops += float64(st.Hops)
			comps += float64(st.DistanceComputations)
			plain++
		}
	}
	hops, comps = hops/plain, comps/plain
	set("core.hops_per_query", hops)
	set("core.dist_comps_per_query", comps)
	st := s.idx.Stats()
	vecBytes := float64(dim * 4)
	if s.idx.Quantized() {
		vecBytes = dim
	}
	set("core.bytes_per_hop", float64(st.IndexBytes)/float64(st.N)+comps/hops*vecBytes)

	// The kernel's share of a search, estimated as evaluations counted
	// times the cost of one evaluation measured alone.
	perEval := float32Kernel(r.c)
	if s.idx.Quantized() {
		sq8, int4 := codeKernels(r.c)
		set("quant.sq8_ns_per_eval", sq8)
		set("quant.int4_ns_per_eval", int4)
		set("quant.share_of_search", comps*sq8/1e3/plainUs)
		perEval = sq8
	} else {
		set("vecmath.l2_ns_per_eval", perEval)
		set("vecmath.l2_gbps", dim*4/perEval)
		set("vecmath.share_of_search", comps*perEval/1e3/plainUs)
	}
	set("vecmath.stream_gbps", streamGBps())
	set("core.search_self_us", plainUs-comps*perEval/1e3)
	set("harness.layer_sum_ratio", tr.coverage())

	switch r.plan.name {
	case "lib_read":
		set("nsg.save_ms", s.saveMs)
		set("core.cohort_speedup", s.cohortSpeedup(r))
	case "lib_filter_quant":
		set("nsg.save_mapped_ms", s.saveMs)
		set("mstore.open_ms", s.openMs)
		set("mstore.first_query_ms", s.firstQueryMs)
		for _, class := range []int{classF10, classF05} {
			name := classNames[class]
			set("core.filtered_search_us."+name, median(tr.durations("core.search."+name)))
			set("meta.compile_us."+name, median(tr.durations("meta.compile."+name)))
		}
		var passing, filtered float64
		for i := range r.reqs {
			if r.reqs[i].class != classPlain {
				passing += float64(r.truth[i].qualifying)
				filtered++
			}
		}
		set("meta.passing_rows", passing/filtered)
		// Page faults of a second full pass over the mapping.
		before, err := readProc(s.pids()[0])
		if err != nil {
			return err
		}
		var ans answer
		for i := range r.reqs {
			if err := s.do(op{kind: opSearch, arg: int32(i)}, -1, &ans, nil, -1); err != nil {
				return err
			}
		}
		after, err := readProc(s.pids()[0])
		if err != nil {
			return err
		}
		set("mstore.minor_faults_per_kq", float64(after.minorFault-before.minorFault)*1000/float64(len(r.reqs)))
		set("mstore.major_faults", float64(after.majorFault-before.majorFault))
	}
	return nil
}

// cohortSpeedup is SearchBatch on one worker against the same queries sent
// one by one: what fusing queries into cohorts buys on this base.
func (s *libSystem) cohortSpeedup(r *run) float64 {
	queries := make([][]float32, len(r.reqs))
	for i := range queries {
		queries[i] = row(r.c.queries, i)
	}
	best := func(f func()) time.Duration {
		d := time.Duration(1 << 62)
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			f()
			d = min(d, time.Since(start))
		}
		return d
	}
	solo := best(func() {
		for _, q := range queries {
			s.idx.SearchWithPool(q, topK, searchL)
		}
	})
	batch := best(func() { s.idx.SearchBatch(queries, topK, searchL, 1) })
	return solo.Seconds() / batch.Seconds()
}

// layers for lib_churn: the live-update machinery on top of the library's.
func (s *churnSystem) layers(r *run, tr *tracer, set func(string, float64)) error {
	adds, deletes := tr.durations("live.add"), tr.durations("live.delete")
	set("live.add_p50_us", percentile(adds, 50))
	set("live.add_p95_us", percentile(adds, 95))
	set("live.delete_p50_us", percentile(deletes, 50))
	set("live.pending_p95", percentile(s.pending, 95))
	set("live.pending_max", percentile(s.pending, 100))
	set("live.search_slowdown", median(tr.durations("core.search.plain"))/median(r.warmUs))

	first, last := tr.spans[0], tr.spans[len(tr.spans)-1]
	wall := float64(last.EndNs-first.StartNs) / 1e9
	set("live.publishes_per_s", float64(s.idx.MaintenanceStats().Publishes-s.publishesBefore)/wall)
	start := time.Now()
	s.idx.Flush()
	set("live.flush_ms", ms(time.Since(start)))
	set("live.drained_ratio", float64(s.idx.MaintenanceStats().Drained)/float64(len(r.extra)))
	return s.libSystem.layers(r, tr, set)
}

// layers for cluster_mix, by substitution: the same request is timed through
// the router, then straight at the backends, then the backends' own handler
// time is read from /stats, then the same bundles are searched in this
// process; each layer's self time is its time minus the next one's. The
// chain is taken over the plain requests: they are two thirds of the mix, so
// the end-to-end median latency is one of theirs.
func (s *clusterSystem) layers(r *run, tr *tracer, set func(string, float64)) error {
	type serveStats struct {
		Queries float64 `json:"queries"`
		Mean    float64 `json:"mean_search_micros"`
	}
	type routerStats struct {
		Router struct {
			Retries float64 `json:"retries"`
			Hedges  float64 `json:"hedges"`
		} `json:"router"`
	}
	set("nsgserve.insert_us", median(tr.durations("nsgserve.insert")))
	var rs routerStats
	if err := s.stats(s.router.addr, &rs); err != nil {
		return err
	}
	set("cluster.retries", rs.Router.Retries)
	set("cluster.hedges", rs.Router.Hedges)

	// Every request through the router, for the CPU each tier spends on one.
	cpuOf := func(pids ...int) float64 {
		u, _ := usage(pids)
		return u.cpuSeconds
	}
	pids := s.pids()
	serveCPU, routerCPU := cpuOf(pids[0], pids[1]), cpuOf(pids[2])
	var ans answer
	for i := range r.reqs {
		if err := s.search(s.router.addr, i, &ans); err != nil {
			return err
		}
	}
	n := float64(len(r.reqs))
	set("nsgserve.cpu_us_per_req", (cpuOf(pids[0], pids[1])-serveCPU)*1e6/n)
	set("nsgrouter.cpu_us_per_req", (cpuOf(pids[2])-routerCPU)*1e6/n)
	set("nsgserve.request_bytes", float64(s.requestBytes)/float64(s.searches))
	set("nsgserve.response_bytes", float64(s.responseBytes)/float64(s.searches))

	// The router's time comes from the traced stretches; then every plain
	// request goes straight at the backends, one after another as the
	// router's did (a pass that alternated the two left each tier idle
	// between its requests and read 15% slow). A router request waits for
	// the slower backend, so that one is its child span.
	routerSpan := map[int32]int32{} // request -> a span of it through the router
	var viaRouter []float64
	for i := range tr.spans {
		if sp := &tr.spans[i]; sp.Name == "nsgrouter.request" && r.reqs[r.ops[sp.Op].arg].class == classPlain {
			routerSpan[r.ops[sp.Op].arg] = sp.ID
			viaRouter = append(viaRouter, sp.us())
		}
	}
	var before, after [2]serveStats
	for i, c := range s.backends {
		if err := s.stats(c.addr, &before[i]); err != nil {
			return err
		}
	}
	var directUs []float64
	for req := range r.reqs {
		parent, ok := routerSpan[int32(req)]
		if !ok {
			continue
		}
		start := time.Now()
		_, d, err := s.direct(req)
		if err != nil {
			return err
		}
		tr.add("nsgserve.request", tr.spans[parent].Op, parent, start, d)
		directUs = append(directUs, us(d))
	}
	routerUs, serveUs := median(viaRouter), median(directUs)
	set("nsgrouter.request_us", routerUs)
	set("nsgserve.request_us", serveUs)
	handlerUs := 0.0
	for i, c := range s.backends {
		if err := s.stats(c.addr, &after[i]); err != nil {
			return err
		}
		// The mean of the handler's own clock over the direct pass.
		spent := after[i].Mean*after[i].Queries - before[i].Mean*before[i].Queries
		handlerUs = max(handlerUs, spent/(after[i].Queries-before[i].Queries))
	}
	set("nsgserve.handler_search_us", handlerUs)

	// The same bundles in this process, on one CPU like the backends.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var shards [2]*nsg.ShardedIndex
	start := time.Now()
	for i, path := range s.bundles {
		idx, err := nsg.LoadSharded(path)
		if err != nil {
			return err
		}
		defer idx.Close()
		shards[i] = idx
	}
	set("nsg.load_sharded_ms", ms(time.Since(start))/2)
	var plainUs, filteredUs, compileUs []float64
	var comps, hops, plain float64
	for i := range r.reqs {
		q := &r.reqs[i]
		query := row(r.c.queries, q.query)
		var slowest, slowestCompile time.Duration
		for _, idx := range shards {
			var f *nsg.ShardedFilter
			if q.class != classPlain {
				start := time.Now()
				var err error
				if f, err = idx.CompileFilter(predicate(q)); err != nil {
					return err
				}
				slowestCompile = max(slowestCompile, time.Since(start))
			}
			start := time.Now()
			idx.SearchFilteredWithPool(query, topK, searchL, f)
			slowest = max(slowest, time.Since(start))
			if q.class == classPlain {
				_, _, st := idx.SearchWithStats(query, topK, searchL)
				comps += float64(st.DistanceComputations)
				hops += float64(st.Hops)
			}
		}
		if q.class == classPlain {
			plainUs = append(plainUs, us(slowest))
			plain++
		} else {
			filteredUs = append(filteredUs, us(slowest))
			compileUs = append(compileUs, us(slowestCompile))
		}
	}
	// Work of a plain request, summed over both backends' shards.
	comps, hops = comps/plain, hops/plain
	searchUs := median(plainUs)
	set("distsearch.search_us", searchUs)
	set("distsearch.filtered_search_us", median(filteredUs))
	set("meta.compile_us.f10", median(compileUs))
	set("core.dist_comps_per_query", comps)
	set("core.hops_per_query", hops)
	perEval := float32Kernel(r.c)
	set("vecmath.l2_ns_per_eval", perEval)

	// Self times of the plain chain. One backend does half the evaluations.
	kernelUs := comps / 2 * perEval / 1e3
	routerSelf, serveSelf := routerUs-serveUs, serveUs-handlerUs
	set("nsgrouter.self_us", routerSelf)
	set("nsgserve.self_us", serveSelf)
	set("core.search_self_us", searchUs-kernelUs)
	set("vecmath.share_of_search", kernelUs/searchUs)
	set("harness.layer_sum_ratio", (routerSelf+serveSelf+searchUs)/(1e3*median(r.untracedPlainMs)))
	return nil
}
