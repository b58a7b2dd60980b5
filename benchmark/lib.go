package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	nsg "repro"
)

// The three in-process workloads. Each calls the public nsg API from one
// goroutine, the way an embedding application would.

func buildOptions(seed int64, quant nsg.QuantMode) nsg.Options {
	o := nsg.DefaultOptions()
	o.SearchL = searchL
	o.Seed = seed
	o.Quantize = quant
	return o
}

// buildIndex builds over a copy of rows (the index takes ownership).
func buildIndex(rows []float32, opts nsg.Options) (*nsg.Index, float64, error) {
	data := append([]float32(nil), rows...)
	start := time.Now()
	idx, err := nsg.BuildFromFlat(data, dim, opts)
	return idx, time.Since(start).Seconds(), err
}

// saved writes an index with save and returns how long that took, in
// milliseconds, and how large the file is.
func saved(path string, save func(path string) error) (float64, int64, error) {
	start := time.Now()
	if err := save(path); err != nil {
		return 0, 0, err
	}
	took := ms(time.Since(start))
	st, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}
	return took, st.Size(), nil
}

// libSystem is an nsg.Index in this process.
type libSystem struct {
	r   *run
	idx *nsg.Index
	// slotID maps a script slot to the id the index gave it (lib_churn).
	slotID []int32

	buildStats                   nsg.BuildStats
	saveMs, openMs, firstQueryMs float64
}

func (s *libSystem) pids() []int { return []int{os.Getpid()} }

func (s *libSystem) close() {
	if s.idx != nil {
		s.idx.Close()
		s.idx = nil
	}
}

func (s *libSystem) do(o op, index int, ans *answer, tr *tracer, parent int32) error {
	r := s.r
	switch o.kind {
	case opSearch:
		q := &r.reqs[o.arg]
		query := row(r.c.queries, q.query)
		if q.class == classPlain {
			sp := tr.begin("core.search.plain", index, parent)
			ans.ids, ans.dists = s.idx.SearchWithPool(query, topK, searchL)
			tr.end(sp)
			return nil
		}
		sp := tr.begin("meta.compile."+classNames[q.class], index, parent)
		f, err := s.idx.CompileFilter(predicate(q))
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("core.search."+classNames[q.class], index, parent)
		ans.ids, ans.dists = s.idx.SearchFilteredWithPool(query, topK, searchL, f)
		tr.end(sp)
		return nil
	case opAdd:
		v := row(r.c.reserve, int(o.arg))
		sp := tr.begin("live.add", index, parent)
		id, err := s.idx.Add(v)
		tr.end(sp)
		if err != nil {
			return err
		}
		if r.vec(id) != nil {
			return fmt.Errorf("Add returned id %d, which is already in use", id)
		}
		r.extra[id] = v
		s.slotID = append(s.slotID, id)
		return nil
	case opDelete:
		id := s.slotID[o.arg]
		sp := tr.begin("live.delete", index, parent)
		err := s.idx.Delete(id)
		tr.end(sp)
		r.dead[id] = true
		return err
	}
	return fmt.Errorf("op kind %d is not one an in-process workload issues", o.kind)
}

func predicate(q *request) nsg.Predicate {
	if q.class == classF10 {
		return nsg.Eq("category", categoryName(q.category))
	}
	return nsg.Range("tenant", q.lo, q.hi)
}

// metadata builds the store describing base rows lo..hi-1.
func metadata(c *corpus, lo, hi int) (*nsg.Metadata, error) {
	m := nsg.NewMetadata(hi - lo)
	cats := make([]string, hi-lo)
	for i := range cats {
		cats[i] = categoryName(c.category[lo+i])
	}
	if err := m.AddEnum("category", cats); err != nil {
		return nil, err
	}
	if err := m.AddInt64("tenant", c.tenant[lo:hi]); err != nil {
		return nil, err
	}
	return m, nil
}

func startLibRead(r *run, dir string) (*built, error) {
	idx, buildS, err := buildIndex(r.c.base, buildOptions(r.cfg.seed, nsg.QuantNone))
	if err != nil {
		return nil, err
	}
	s := &libSystem{r: r, idx: idx, buildStats: idx.BuildStats()}
	var size int64
	s.saveMs, size, err = saved(filepath.Join(dir, "lib_read.nsg"), idx.Save)
	return &built{sys: s, buildSeconds: buildS, artefactBytes: size, artefactRows: r.n}, err
}

func startLibFilterQuant(r *run, dir string) (*built, error) {
	heap, buildS, err := buildIndex(r.c.base, buildOptions(r.cfg.seed, nsg.QuantSQ8))
	if err != nil {
		return nil, err
	}
	m, err := metadata(r.c, 0, r.n)
	if err != nil {
		return nil, err
	}
	if err := heap.SetMetadata(m); err != nil {
		return nil, err
	}
	s := &libSystem{r: r, buildStats: heap.BuildStats()}
	path := filepath.Join(dir, "lib_filter_quant.nsgm")
	var size int64
	if s.saveMs, size, err = saved(path, heap.SaveMapped); err != nil {
		return nil, err
	}
	heap.Close()

	// Serve from the mapping, not from the heap index that wrote it.
	start := time.Now()
	if s.idx, err = nsg.OpenMapped(path, nsg.MapOptions{}); err != nil {
		return nil, err
	}
	s.openMs = ms(time.Since(start))
	start = time.Now()
	s.idx.SearchWithPool(row(r.c.queries, 0), topK, searchL)
	s.firstQueryMs = ms(time.Since(start))
	return &built{sys: s, buildSeconds: buildS, artefactBytes: size, artefactRows: r.n}, nil
}

func startLibChurn(r *run, dir string) (*built, error) {
	idx, buildS, err := buildIndex(r.c.base, buildOptions(r.cfg.seed, nsg.QuantNone))
	if err != nil {
		return nil, err
	}
	_, size, err := saved(filepath.Join(dir, "lib_churn.nsg"), idx.Save)
	if err != nil {
		return nil, err
	}
	if err := idx.EnableLiveUpdates(nsg.LiveOptions{}); err != nil {
		return nil, err
	}
	s := &churnSystem{libSystem: libSystem{r: r, idx: idx, buildStats: idx.BuildStats(), slotID: make([]int32, r.n)}}
	for i := range s.slotID {
		s.slotID[i] = int32(i)
	}
	return &built{sys: s, buildSeconds: buildS, artefactBytes: size, artefactRows: r.n}, nil
}

// churnSystem is a libSystem whose live set moves, so it can be re-checked
// against the oracle while the script runs.
type churnSystem struct {
	libSystem
	// Sampled after every op of the traced replay only.
	pending         []float64
	publishesBefore uint64
}

func (s *churnSystem) do(o op, index int, ans *answer, tr *tracer, parent int32) error {
	err := s.libSystem.do(o, index, ans, tr, parent)
	if tr != nil {
		st := s.idx.MaintenanceStats()
		if s.pending == nil {
			s.publishesBefore = st.Publishes
		}
		s.pending = append(s.pending, float64(st.Pending))
	}
	return err
}

// checkpoint re-answers the first requests exactly over the rows live right
// now and compares the index's answers: an added row must be findable and a
// deleted one gone the moment the call returned.
func (s *churnSystem) checkpoint(r *run) {
	var ids []int32
	var vecs [][]float32
	for i := 0; i < r.n; i++ {
		if !r.dead[int32(i)] {
			ids, vecs = append(ids, int32(i)), append(vecs, row(r.c.base, i))
		}
	}
	for id, v := range r.extra {
		if !r.dead[id] {
			ids, vecs = append(ids, id), append(vecs, v)
		}
	}
	live := rowSet{n: len(ids), id: func(i int) int32 { return ids[i] }, vec: func(i int) []float32 { return vecs[i] }}
	count := min(checkpointQs, len(r.reqs))
	query := func(i int) []float32 { return row(r.c.queries, r.reqs[i].query) }
	exact := exactAll(count, topK, query, func(int) rowSet { return live })
	var ans answer
	for i := 0; i < count; i++ {
		err := s.do(op{kind: opSearch, arg: int32(i)}, -1, &ans, nil, -1)
		r.judge(-1, i, &ans, err)
		r.score(&exact[i], query(i), ans.ids)
	}
}
