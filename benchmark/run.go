package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// answer is what a search op returned.
type answer struct {
	ids   []int32
	dists []float32
}

// system is one built instance of what a workload measures.
type system interface {
	// do executes one op; a search fills ans. With a tracer it records a
	// span around each layer it calls, under parent.
	do(o op, index int, ans *answer, tr *tracer, parent int32) error
	// pids are the processes whose CPU time and memory the run charges.
	pids() []int
	// layers adds the per-layer metrics of a traced run that only this
	// kind of system can measure.
	layers(r *run, tr *tracer, set func(name string, v float64)) error
	close() // safe to repeat
}

// built is a system with what building it cost and produced.
type built struct {
	sys           system
	buildSeconds  float64 // wall time inside the library's Build* calls
	artefactBytes int64   // size of the saved index
	artefactRows  int
}

// plan is the fixed description of a workload.
type plan struct {
	name string
	why  string
	// n is the base size; quick runs use quickN.
	n int
	// requests is how many distinct requests the workload has; a pass of
	// the script replays each once.
	requests int
	// classes is how many of every 1000 requests are of each class.
	classes [nClass]int
	// script gives the write ops per 1000 requests.
	script scriptSpec
	// rate is the ops per second the seed commit sustained on the reference
	// host. It only fixes how many ops `-seconds` stands for, so that a
	// run does the same work on every commit.
	rate float64
	// caller says who issues the ops, for the report.
	caller string
	start  func(r *run, dir string) (*built, error)
}

const (
	nWindows     = 12
	perMille     = 1000
	nSetups      = 3
	quickN       = 2000
	quickReqs    = 200
	checkpointQs = 300 // requests the live-set oracle re-answers per checkpoint
	minRecall    = 0.95
	tracedOps    = 2000
)

// run is one execution of one workload.
type run struct {
	cfg  config
	plan *plan
	n    int

	c     *corpus
	reqs  []request
	ops   []op
	truth []truth
	warm  []answer // the untimed pass's answers, by request
	// warmUs is what each request took in the untimed pass; untracedMs is
	// what each search of the traced run's untraced stretches took, and
	// untracedPlainMs the plain searches among them.
	warmUs, untracedMs, untracedPlainMs []float64

	// The harness's own model of the state that ops change; the validator
	// reads it, the system under test never does.
	baseRow func(id int32) int // the base row an id names, or -1
	extra   map[int32][]float32
	dead    map[int32]bool
	// stable is set for read-only workloads: every timed answer must then
	// equal the untimed pass's answer to the same request.
	stable bool

	attempted, failed int
	failures          []string
	hits, possible    int
	note              []string
}

func (r *run) vec(id int32) []float32 {
	if b := r.baseRow(id); b >= 0 {
		return row(r.c.base, b)
	}
	return r.extra[id]
}

// judge validates one search answer and counts it.
func (r *run) judge(index int, req int, ans *answer, err error) {
	r.attempted++
	switch {
	case err != nil:
	case r.stable && r.warm != nil:
		// A read-only system must repeat the answer the untimed pass
		// validated in full; comparing is also far cheaper than validating,
		// and this runs between the timed calls.
		if w := &r.warm[req]; !slices.Equal(ans.ids, w.ids) || !slices.Equal(ans.dists, w.dists) {
			err = fmt.Errorf("answer %v differs from the untimed pass's %v", ans.ids, w.ids)
		}
	default:
		q := &r.reqs[req]
		err = validate(&answerCheck{
			k: topK, query: row(r.c.queries, q.query), vec: r.vec,
			atLeast: min(topK, r.truth[req].qualifying),
			allowed: func(id int32) bool {
				if r.dead[id] {
					return false
				}
				if b := r.baseRow(id); b >= 0 {
					return q.passes(r.c, b)
				}
				return q.class == classPlain // rows added later carry no metadata
			},
		}, ans.ids, ans.dists)
	}
	r.fail(index, err)
}

// fail records err against op index; nil is a success.
func (r *run) fail(index int, err error) {
	if err == nil {
		return
	}
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf("op %d: %v", index, err))
	}
}

// score adds an oracle-checked answer to the recall tally.
func (r *run) score(t *truth, q []float32, ids []int32) {
	r.hits += hits(t, ids, func(id int32) float64 {
		if v := r.vec(id); v != nil {
			return l2f64(q, v)
		}
		return 1e300
	})
	r.possible += len(t.ids)
}

// prepare makes the inputs from the seed and returns how long that took.
func (r *run) prepare() time.Duration {
	start := time.Now()
	p, reqs := r.plan, r.plan.requests
	r.n = p.n
	if r.cfg.quick {
		r.n, reqs = quickN, min(reqs, quickReqs)
	}
	spec := p.script
	spec.requests = reqs
	spec.adds, spec.deletes, spec.inserts = spec.adds*reqs/perMille, spec.deletes*reqs/perMille, spec.inserts*reqs/perMille
	spec.initial = r.n

	// The op count is fixed by -seconds and the plan's rate, in whole
	// passes per window, so every window of every run does the same work.
	perWindow := max(1, int(p.rate*r.cfg.seconds/float64(nWindows*spec.passLen())+0.5))
	if r.cfg.quick {
		perWindow = 1
	}
	passes := nWindows * perWindow

	r.c = genCorpus(r.cfg.seed, r.n, reqs, spec.reserveNeeded(passes))
	var classes [nClass]int
	classes[classPlain] = reqs // less the filtered ones; rounding falls here
	for i, c := range p.classes {
		if i != classPlain {
			classes[i] = c * reqs / perMille
			classes[classPlain] -= classes[i]
		}
	}
	r.reqs = genRequests(r.cfg.seed, r.c, classes)
	r.ops = genScript(r.cfg.seed, spec, passes)
	r.resetModel()
	return time.Since(start)
}

func (r *run) resetModel() {
	r.baseRow = func(id int32) int {
		if id >= 0 && int(id) < r.n {
			return int(id)
		}
		return -1
	}
	r.extra = map[int32][]float32{}
	r.dead = map[int32]bool{}
}

// baseRows is the oracle's view of the static corpus under a request.
func (r *run) baseRows(q *request) rowSet {
	return rowSet{
		n:    r.n,
		id:   func(i int) int32 { return int32(i) },
		vec:  func(i int) []float32 { return row(r.c.base, i) },
		pass: func(i int) bool { return q.passes(r.c, i) },
	}
}

// untimedPass sends every request once: it warms the system, checks each
// answer against the oracle, and keeps the answers. It returns the time
// spent inside the system.
func (r *run) untimedPass(sys system) time.Duration {
	r.truth = exactAll(len(r.reqs), topK,
		func(i int) []float32 { return row(r.c.queries, r.reqs[i].query) },
		func(i int) rowSet { return r.baseRows(&r.reqs[i]) })
	warm := make([]answer, len(r.reqs))
	var inside time.Duration
	for i := range r.reqs {
		start := time.Now()
		err := sys.do(op{kind: opSearch, arg: int32(i)}, -1, &warm[i], nil, -1)
		d := time.Since(start)
		inside += d
		r.warmUs = append(r.warmUs, us(d))
		r.judge(-1, i, &warm[i], err)
		if v, ok := sys.(verifier); ok && err == nil {
			r.attempted++
			r.fail(-1, v.verify(i, &warm[i]))
		}
		r.score(&r.truth[i], row(r.c.queries, r.reqs[i].query), warm[i].ids)
	}
	r.warm = warm
	return inside
}

// verifier is a system with a second, independent way to answer a request,
// against which the untimed pass checks the first.
type verifier interface {
	verify(req int, got *answer) error
}

// checkpointer is a system whose answers change as the script runs, and
// which can be re-checked against the oracle between windows.
type checkpointer interface {
	checkpoint(r *run)
}

// timed runs ops lo..hi-1 of the script in windows equal parts and returns
// the windows, the calibration samples taken between them, and the CPU
// seconds the pids spent inside the windows.
func (r *run) timed(sys system, lo, hi, windows int, tr *tracer) ([]window, []float64, float64, error) {
	per := (hi - lo) / windows
	out := make([]window, windows)
	for w := range out {
		out[w].searchMs = make([]float64, 0, per)
	}
	calib := make([]float64, 0, windows+1)
	var cpu float64
	var ans answer
	deadline := time.Now().Add(time.Duration(4 * r.cfg.seconds * float64(time.Second)))
	for w := range out {
		calib = append(calib, calibrate())
		if time.Now().After(deadline) {
			// Far slower than the plan's rate: report the windows done
			// rather than overrun the caller's time limit.
			r.note = append(r.note, fmt.Sprintf("truncated: stopped after %d of %d windows", w, windows))
			out = out[:w]
			break
		}
		before, err := usage(sys.pids())
		if err != nil {
			return nil, nil, 0, err
		}
		win := &out[w]
		start := time.Now()
		for index := lo + w*per; index < lo+(w+1)*per; index++ {
			o := r.ops[index]
			root := tr.begin("op", index, -1)
			s := time.Now()
			err := sys.do(o, index, &ans, tr, root)
			d := time.Since(s)
			tr.end(root)
			if o.kind == opSearch {
				win.searchMs = append(win.searchMs, ms(d))
				r.judge(index, int(o.arg), &ans, err)
			} else {
				r.attempted++
				r.fail(index, err)
			}
		}
		win.wall, win.ops = time.Since(start), per
		after, err := usage(sys.pids())
		if err != nil {
			return nil, nil, 0, err
		}
		cpu += after.cpuSeconds - before.cpuSeconds
		if cp, ok := sys.(checkpointer); ok && windows >= 4 && (w+1)%(windows/4) == 0 && w+1 < windows {
			cp.checkpoint(r)
		}
	}
	calib = append(calib, calibrate())
	if len(out) < windows/2 {
		return nil, nil, 0, fmt.Errorf("only %d of %d windows finished in %v", len(out), windows, 4*r.cfg.seconds)
	}
	return out, calib, cpu, nil
}

// execute runs the workload and returns its result.
func execute(cfg config) (*result, error) {
	p := planByName(cfg.workload)
	if p == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	dir, err := newRunDir(cfg.workdir)
	if err != nil {
		return nil, err
	}
	defer atExit(func() { os.RemoveAll(dir) })()
	r := &run{cfg: cfg, plan: p}
	r.stable = p.script.passLen() == 0
	genTime := r.prepare()

	// Set up several times and keep the median: one build is as noisy as
	// one latency sample. The last system built is the one measured.
	setups := nSetups
	if cfg.quick || cfg.trace {
		setups = 1
	}
	var b *built
	var setupS, buildS []float64
	for i := 0; i < setups; i++ {
		if b != nil {
			b.sys.close()
			runtime.GC()
			debug.FreeOSMemory()
		}
		setupDir := filepath.Join(dir, fmt.Sprint("setup", i))
		if err := os.Mkdir(setupDir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		if b, err = p.start(r, setupDir); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", p.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		buildS = append(buildS, b.buildSeconds)
	}
	defer func() { b.sys.close() }() // b is the last system built
	warmTime := r.untimedPass(b.sys)

	res := &result{Metrics: map[string]metric{}}
	if cfg.trace {
		if err := r.traced(b, res); err != nil {
			return nil, err
		}
	} else {
		windows, calib, cpu, err := r.timed(b.sys, 0, len(r.ops), nWindows, nil)
		if err != nil {
			return nil, err
		}
		rss, err := residentSet(b.sys.pids())
		if err != nil {
			return nil, err
		}
		ops := 0
		for i := range windows {
			ops += windows[i].ops
		}
		res.set("setup_s", genTime.Seconds()+median(setupS)+warmTime.Seconds())
		res.set("qps", acrossWindows(windows, (*window).qps))
		res.set("lat_p50_ms", acrossWindows(windows, func(w *window) float64 { return percentile(w.searchMs, 50) }))
		res.set("recall_at_10", float64(r.hits)/float64(r.possible))
		res.set("cpu_us_per_op", cpu*1e6/float64(ops))
		res.set("rss_mb", float64(rss)/(1<<20))
		res.set("index_bytes_per_vec", float64(b.artefactBytes)/float64(b.artefactRows))
		fmt.Printf("%s seed %d: %d ops in %d windows of %d (%d searches each), %s\n",
			p.name, cfg.seed, ops, len(windows), windows[0].ops, len(windows[0].searchMs), p.caller)
		perWindow := make([]string, len(windows))
		for i := range windows {
			perWindow[i] = fmt.Sprintf("%.0f", windows[i].qps())
		}
		fmt.Printf("ops per second by window: %s\n", strings.Join(perWindow, " "))
		fmt.Printf("set-ups %.3f s, builds %.3f s; lat_p95_ms %.4f (median across windows; not gated)\n", setupS, buildS,
			acrossWindows(windows, func(w *window) float64 { return percentile(w.searchMs, 95) }))
		fmt.Printf("calibration %.3f ms, spread %.1f%%, noisy_host: %v\n", median(calib), 100*iqrShare(calib), iqrShare(calib) > noisyCalibSpread)
	}
	recall := float64(r.hits) / float64(r.possible)
	for _, f := range r.failures {
		fmt.Println("failure:", f)
	}
	for _, n := range r.note {
		fmt.Println("note:", n)
	}
	if recall < minRecall {
		fmt.Printf("failure: recall@%d %.4f is below %.2f\n", topK, recall, minRecall)
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.failed == 0 && recall >= minRecall
	return res, nil
}

// newRunDir makes a fresh directory for one run's files under workdir.
func newRunDir(workdir string) (string, error) {
	tmp := filepath.Join(workdir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(tmp, "run")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}
