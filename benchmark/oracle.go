package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// The oracle answers a request exactly, by scanning every candidate row in
// float64, and the validator judges an answer against it. Both take the
// candidate set as functions, so one implementation serves the static
// corpus, a predicate and the live set of lib_churn.

// rowSet is what an oracle scan ranges over: candidate i has a public id
// and a vector, and may be excluded (filtered out, deleted).
type rowSet struct {
	n    int
	id   func(i int) int32
	vec  func(i int) []float32
	pass func(i int) bool // nil: every candidate passes
}

// truth is the exact answer to one request.
type truth struct {
	ids        []int32
	dists      []float64 // ascending; ties broken by id
	qualifying int       // rows that passed the request's predicate
}

// kth is the distance an answer's id must not exceed to count as a hit.
func (t *truth) kth() float64 {
	if len(t.dists) == 0 {
		return math.Inf(-1)
	}
	return t.dists[len(t.dists)-1]
}

func l2f64(a, b []float32) float64 {
	var s float64
	for i, x := range a {
		d := float64(x) - float64(b[i])
		s += d * d
	}
	return s
}

// exactTopK scans rs and returns the k nearest passing rows to q.
func exactTopK(q []float32, k int, rs rowSet) truth {
	type cand struct {
		id int32
		d  float64
	}
	less := func(a, b cand) bool { return a.d < b.d || (a.d == b.d && a.id < b.id) }
	top := make([]cand, 0, k+1)
	t := truth{}
	for i := 0; i < rs.n; i++ {
		if rs.pass != nil && !rs.pass(i) {
			continue
		}
		t.qualifying++
		c := cand{rs.id(i), l2f64(q, rs.vec(i))}
		if len(top) == k && !less(c, top[k-1]) {
			continue
		}
		at := sort.Search(len(top), func(j int) bool { return less(c, top[j]) })
		top = append(top, cand{})
		copy(top[at+1:], top[at:])
		top[at] = c
		if len(top) > k {
			top = top[:k]
		}
	}
	for _, c := range top {
		t.ids = append(t.ids, c.id)
		t.dists = append(t.dists, c.d)
	}
	return t
}

// exactAll answers count requests on every core; rowsFor(i) and queryFor(i)
// give request i's candidate set and query.
func exactAll(count, k int, queryFor func(i int) []float32, rowsFor func(i int) rowSet) []truth {
	out := make([]truth, count)
	var wg sync.WaitGroup
	workers := 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < count; i += workers {
				out[i] = exactTopK(queryFor(i), k, rowsFor(i))
			}
		}(w)
	}
	wg.Wait()
	return out
}

// answerCheck is what the validator needs to know about the rows an answer
// may name: none of it comes from the system under test.
type answerCheck struct {
	k       int
	query   []float32
	vec     func(id int32) []float32 // nil result: no such id
	allowed func(id int32) bool      // passes the predicate and is not deleted
	// atLeast is how many results the answer must hold: min(k, qualifying
	// rows) when the qualifying count is known, else 0.
	atLeast int
}

// validate returns why an answer is wrong, or nil. It checks shape, order,
// that every id exists, is allowed and is distinct, and that each reported
// distance is the true one.
func validate(c *answerCheck, ids []int32, dists []float32) error {
	if len(ids) != len(dists) {
		return fmt.Errorf("%d ids but %d distances", len(ids), len(dists))
	}
	if len(ids) > c.k {
		return fmt.Errorf("%d results for k=%d", len(ids), c.k)
	}
	if len(ids) < c.atLeast {
		return fmt.Errorf("%d results but %d rows qualify", len(ids), c.atLeast)
	}
	for i, id := range ids {
		v := c.vec(id)
		if v == nil {
			return fmt.Errorf("result %d: unknown id %d", i, id)
		}
		if !c.allowed(id) {
			return fmt.Errorf("result %d: id %d is deleted or fails the predicate", i, id)
		}
		for _, prev := range ids[:i] {
			if prev == id {
				return fmt.Errorf("result %d: id %d repeated", i, id)
			}
		}
		d := float64(dists[i])
		if math.IsNaN(d) || (i > 0 && dists[i] < dists[i-1]) {
			return fmt.Errorf("result %d: distance %v out of order", i, dists[i])
		}
		if want := l2f64(c.query, v); math.Abs(d-want) > 1e-4*math.Max(1, want) {
			return fmt.Errorf("result %d: id %d reported at %v, true distance %v", i, id, d, want)
		}
	}
	return nil
}

// hits counts the results that belong in the exact answer: those no farther
// than the oracle's k-th neighbour, so equidistant rows are interchangeable.
// dist gives the true distance of an id.
func hits(t *truth, ids []int32, dist func(id int32) float64) int {
	n := 0
	for _, id := range ids {
		if dist(id) <= t.kth() {
			n++
		}
	}
	return min(n, len(t.ids))
}
