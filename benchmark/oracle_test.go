package main

import (
	"reflect"
	"strings"
	"testing"
)

func testCorpus() *corpus { return genCorpus(7, 600, 20, 30) }

func baseRows(c *corpus, pass func(i int) bool) rowSet {
	return rowSet{n: c.n, id: func(i int) int32 { return int32(i) }, vec: func(i int) []float32 { return row(c.base, i) }, pass: pass}
}

func TestGeneratorIsSeeded(t *testing.T) {
	a, b := testCorpus(), testCorpus()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different corpora")
	}
	if reflect.DeepEqual(a.base, genCorpus(8, 600, 20, 30).base) {
		t.Fatal("different seeds gave the same base")
	}
	// Drawing a longer reserve must not move the base or the queries.
	if c := genCorpus(7, 600, 20, 90); !reflect.DeepEqual(a.base, c.base) || !reflect.DeepEqual(a.queries, c.queries) {
		t.Fatal("reserve size changed the base or the queries")
	}
	for _, v := range a.base {
		if v < 0 || v > 255 || v != float32(int(v)) {
			t.Fatalf("base value %v is not an integer in [0,255]", v)
		}
	}
	perClass := [nClass]int{10, 6, 4}
	reqs := genRequests(7, a, perClass)
	var got [nClass]int
	for i := range reqs {
		q := &reqs[i]
		got[q.class]++
		passing := 0
		for id := 0; id < a.n; id++ {
			if q.passes(a, id) {
				passing++
			}
		}
		if q.class == classF05 && passing != a.n/200 {
			t.Fatalf("f05 request passes %d rows, want %d", passing, a.n/200)
		}
	}
	if got != perClass {
		t.Fatalf("class counts %v, want %v", got, perClass)
	}
}

func TestScriptDeletesOnlyLiveSlots(t *testing.T) {
	spec := scriptSpec{requests: 50, adds: 6, deletes: 4, initial: 20}
	ops := genScript(3, spec, 8)
	if !reflect.DeepEqual(ops, genScript(3, spec, 8)) {
		t.Fatal("same seed gave different scripts")
	}
	if len(ops) != 8*spec.passLen() {
		t.Fatalf("script has %d ops, want %d", len(ops), 8*spec.passLen())
	}
	live := map[int32]bool{}
	for i := 0; i < spec.initial; i++ {
		live[int32(i)] = true
	}
	adds := int32(0)
	for i, o := range ops {
		switch o.kind {
		case opAdd:
			if o.arg != adds {
				t.Fatalf("op %d: add consumes reserve row %d, want %d", i, o.arg, adds)
			}
			live[int32(spec.initial)+adds] = true
			adds++
		case opDelete:
			if !live[o.arg] {
				t.Fatalf("op %d deletes slot %d, which is not live", i, o.arg)
			}
			delete(live, o.arg)
		}
	}
	if int(adds) != spec.reserveNeeded(8) {
		t.Fatalf("script made %d adds, reserveNeeded says %d", adds, spec.reserveNeeded(8))
	}
}

func TestOracleAgainstSort(t *testing.T) {
	c := testCorpus()
	even := func(i int) bool { return i%2 == 0 }
	for qi := 0; qi < 5; qi++ {
		q := row(c.queries, qi)
		got := exactTopK(q, topK, baseRows(c, even))
		if got.qualifying != c.n/2 {
			t.Fatalf("qualifying %d, want %d", got.qualifying, c.n/2)
		}
		// Every excluded or farther row must lose to the k-th answer.
		for i := 0; i < c.n; i++ {
			in := false
			for _, id := range got.ids {
				in = in || id == int32(i)
			}
			if d := l2f64(q, row(c.base, i)); even(i) && !in && d < got.kth() {
				t.Fatalf("row %d at %v beats the oracle's k-th %v", i, d, got.kth())
			}
			if in && !even(i) {
				t.Fatalf("oracle returned excluded row %d", i)
			}
		}
	}
	// Fewer qualifying rows than k: all of them, in order.
	few := exactTopK(row(c.queries, 0), topK, baseRows(c, func(i int) bool { return i < 3 }))
	if len(few.ids) != 3 || few.qualifying != 3 {
		t.Fatalf("got %d ids, %d qualifying; want 3, 3", len(few.ids), few.qualifying)
	}
}

func TestValidateRejects(t *testing.T) {
	c := testCorpus()
	q := row(c.queries, 1)
	tr := exactTopK(q, topK, baseRows(c, nil))
	dists := make([]float32, len(tr.dists))
	for i, d := range tr.dists {
		dists[i] = float32(d)
	}
	deleted := int32(-1)
	check := &answerCheck{
		k: topK, query: q, atLeast: topK,
		vec: func(id int32) []float32 {
			if id < 0 || int(id) >= c.n {
				return nil
			}
			return row(c.base, int(id))
		},
		allowed: func(id int32) bool { return id != deleted },
	}
	if err := validate(check, tr.ids, dists); err != nil {
		t.Fatalf("exact answer rejected: %v", err)
	}
	dist := func(id int32) float64 { return l2f64(q, row(c.base, int(id))) }
	if h := hits(&tr, tr.ids, dist); h != topK {
		t.Fatalf("exact answer scores %d hits", h)
	}
	mutate := func(f func(ids []int32, d []float32) ([]int32, []float32)) error {
		ids, d := f(append([]int32(nil), tr.ids...), append([]float32(nil), dists...))
		return validate(check, ids, d)
	}
	cases := []struct {
		want string
		f    func(ids []int32, d []float32) ([]int32, []float32)
	}{
		{"rows qualify", func(ids []int32, d []float32) ([]int32, []float32) { return ids[:9], d[:9] }},
		{"out of order", func(ids []int32, d []float32) ([]int32, []float32) {
			ids[0], ids[9], d[0], d[9] = ids[9], ids[0], d[9], d[0]
			return ids, d
		}},
		{"repeated", func(ids []int32, d []float32) ([]int32, []float32) { ids[1], d[1] = ids[0], d[0]; return ids, d }},
		{"unknown id", func(ids []int32, d []float32) ([]int32, []float32) { ids[2] = int32(c.n); return ids, d }},
		{"true distance", func(ids []int32, d []float32) ([]int32, []float32) { d[9] *= 1.01; return ids, d }},
		{"distances", func(ids []int32, d []float32) ([]int32, []float32) { return ids, d[:9] }},
	}
	for _, tc := range cases {
		if err := mutate(tc.f); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("want an error about %q, got %v", tc.want, err)
		}
	}
	deleted = tr.ids[4]
	if err := validate(check, tr.ids, dists); err == nil || !strings.Contains(err.Error(), "deleted") {
		t.Errorf("deleted id accepted: %v", err)
	}
	// A wrong but well-formed answer validates and scores below k.
	far := exactTopK(q, 2*topK, baseRows(c, nil))
	if h := hits(&tr, far.ids[topK:], dist); h != 0 && far.dists[topK] > tr.kth() {
		t.Errorf("ranks k+1..2k score %d hits", h)
	}
}
