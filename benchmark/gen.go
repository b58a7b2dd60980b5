package main

import (
	"math"
	"math/rand"
)

// Everything the workloads feed the system is made here from the seed alone:
// the corpus, its metadata, the request list and the op script. Nothing in
// this file (or oracle.go) imports the code under test, so a bug there
// cannot hide itself by also skewing the inputs or the expected answers.

const (
	dim       = 128
	topK      = 10
	searchL   = 60
	nCategory = 10

	// Manifold mixture, the shape of SIFT descriptors: integer values in
	// [0,255], clumpy, low intrinsic dimension. Integer coordinates keep
	// every squared distance below 2^24, so float32 and float64 agree
	// exactly and the oracle needs no tolerance for ties. The centres are
	// spread less than a cluster's own radius: the support stays connected.
	// With islands (spread 1.4 on 24 dimensions) one build in ten lost a
	// cluster and recall@10 fell from 0.99 to 0.87-0.97 with the seed.
	genClusters  = 48
	genLatentDim = 24
	genCenterStd = 0.7
	genNoiseStd  = 0.08
	genScale     = 75
	genShift     = 128
)

// RNG streams derived from one seed, so that changing how many rows one
// part draws never shifts the values another part sees.
const (
	streamShape = iota + 1
	streamBase
	streamQueries
	streamReserve
	streamMeta
	streamRequests
	streamScript
)

func rng(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(stream)*7919))
}

// shape is the part of the distribution every row shares: the latent basis
// and the cluster centers. It is the same for every seed: a seed draws
// other rows from one distribution, not another distribution, or else how
// hard the corpus is to search would differ from seed to seed by more than
// any change to the code.
type shape struct {
	basis   []float64 // genLatentDim x dim
	centers []float64 // genClusters x genLatentDim
}

func newShape() *shape {
	r := rng(0, streamShape)
	s := &shape{
		basis:   make([]float64, genLatentDim*dim),
		centers: make([]float64, genClusters*genLatentDim),
	}
	norm := 1 / math.Sqrt(genLatentDim)
	for i := range s.basis {
		s.basis[i] = r.NormFloat64() * norm
	}
	for i := range s.centers {
		s.centers[i] = r.NormFloat64() * genCenterStd
	}
	return s
}

// rows draws n rows of the mixture from r into a fresh row-major matrix.
func (s *shape) rows(r *rand.Rand, n int) []float32 {
	out := make([]float32, n*dim)
	var z [genLatentDim]float64
	for i := 0; i < n; i++ {
		c := s.centers[r.Intn(genClusters)*genLatentDim:][:genLatentDim]
		for l := range z {
			z[l] = c[l] + r.NormFloat64()
		}
		row := out[i*dim : (i+1)*dim]
		for j := range row {
			v := r.NormFloat64() * genNoiseStd
			for l := range z {
				v += z[l] * s.basis[l*dim+j]
			}
			row[j] = float32(math.Round(math.Min(255, math.Max(0, v*genScale+genShift))))
		}
	}
	return out
}

// corpus is one workload's data: base rows with their metadata, the query
// vectors, and a reserve of unseen rows for the write ops.
type corpus struct {
	n        int
	base     []float32
	queries  []float32 // nReq x dim
	reserve  []float32
	category []uint8 // per base row, uniform over nCategory values
	tenant   []int64 // per base row, a permutation of 0..n-1
}

func genCorpus(seed int64, n, nq, reserve int) *corpus {
	s := newShape()
	c := &corpus{
		n:        n,
		base:     s.rows(rng(seed, streamBase), n),
		queries:  s.rows(rng(seed, streamQueries), nq),
		reserve:  s.rows(rng(seed, streamReserve), reserve),
		category: make([]uint8, n),
		tenant:   make([]int64, n),
	}
	r := rng(seed, streamMeta)
	for i := range c.category {
		c.category[i] = uint8(r.Intn(nCategory))
	}
	for i, p := range r.Perm(n) {
		c.tenant[i] = int64(p)
	}
	return c
}

func row(m []float32, i int) []float32 { return m[i*dim : (i+1)*dim] }

func categoryName(c uint8) string { return string(rune('a' + c)) }

// Request classes. A request is one distinct search a workload can issue;
// the op script replays requests, so each one's expected answer is known
// from the untimed pass.
const (
	classPlain = iota
	classF10   // category == c: a tenth of the rows pass
	classF05   // lo <= tenant <= hi: 0.5% of the rows pass
	nClass
)

var classNames = [nClass]string{"plain", "f10", "f05"}

type request struct {
	query    int   // row of corpus.queries
	class    uint8 // classPlain, classF10, classF05
	category uint8 // classF10
	lo, hi   int64 // classF05
}

// passes reports whether base row id satisfies the request's predicate.
func (q *request) passes(c *corpus, id int) bool {
	switch q.class {
	case classF10:
		return c.category[id] == q.category
	case classF05:
		return c.tenant[id] >= q.lo && c.tenant[id] <= q.hi
	}
	return true
}

// genRequests makes one request per query vector with exactly the given
// number of each class, in seeded order.
func genRequests(seed int64, c *corpus, perClass [nClass]int) []request {
	r := rng(seed, streamRequests)
	var reqs []request
	for class, count := range perClass {
		for i := 0; i < count; i++ {
			reqs = append(reqs, request{class: uint8(class)})
		}
	}
	r.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	width := int64(c.n / 200)
	for i := range reqs {
		q := &reqs[i]
		q.query = i
		switch q.class {
		case classF10:
			q.category = uint8(r.Intn(nCategory))
		case classF05:
			q.lo = r.Int63n(int64(c.n) - width + 1)
			q.hi = q.lo + width - 1
		}
	}
	return reqs
}

// Op kinds of a script.
const (
	opSearch = iota
	opAdd    // lib_churn: Add(reserve[arg])
	opDelete // lib_churn: Delete(slot arg)
	opInsert // cluster_mix: POST /insert reserve[arg] to backend arg%2
)

type op struct {
	kind uint8
	arg  int32 // opSearch: request index; others: see the kinds
}

// scriptSpec fixes a workload's op mix: every pass replays each request
// once, in a fresh seeded order, with the write ops spread through it.
// Windows are whole passes, so every window does the same work.
type scriptSpec struct {
	requests int
	adds     int // per pass
	deletes  int // per pass
	inserts  int // per pass
	initial  int // lib_churn: rows live before the first op
}

func (s scriptSpec) passLen() int { return s.requests + s.adds + s.deletes + s.inserts }

// genScript makes passes passes of ops. Add and insert ops consume the
// reserve in order. A delete names a slot: slots 0..initial-1 are the
// initial rows and the i-th add creates slot initial+i, so the script can
// pick a live victim without knowing the ids the index hands out.
func genScript(seed int64, spec scriptSpec, passes int) []op {
	r := rng(seed, streamScript)
	ops := make([]op, 0, passes*spec.passLen())
	live := make([]int32, spec.initial)
	for i := range live {
		live[i] = int32(i)
	}
	nextReserve := int32(0)
	pass := make([]op, spec.passLen())
	for p := 0; p < passes; p++ {
		i := 0
		for ; i < spec.requests; i++ {
			pass[i] = op{kind: opSearch, arg: int32(i)}
		}
		for _, w := range []struct {
			kind  uint8
			count int
		}{{opAdd, spec.adds}, {opDelete, spec.deletes}, {opInsert, spec.inserts}} {
			for j := 0; j < w.count; j++ {
				pass[i] = op{kind: w.kind}
				i++
			}
		}
		r.Shuffle(len(pass), func(a, b int) { pass[a], pass[b] = pass[b], pass[a] })
		for j := range pass {
			o := &pass[j]
			switch o.kind {
			case opAdd:
				live = append(live, int32(spec.initial)+nextReserve)
				o.arg = nextReserve
				nextReserve++
			case opInsert:
				o.arg = nextReserve
				nextReserve++
			case opDelete:
				v := r.Intn(len(live))
				o.arg = live[v]
				live[v] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		ops = append(ops, pass...)
	}
	return ops
}

// reserveNeeded is how many reserve rows passes passes of spec consume.
func (s scriptSpec) reserveNeeded(passes int) int { return passes * (s.adds + s.inserts) }
