package nsg

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"
)

// fuzzPredicateStore is the fixed store FuzzUnmarshalPredicate compiles
// against: 130 rows, so the bitmap crosses two 64-bit word boundaries, with
// an int64, an enum and a tag column, and a last row appended with no
// values at all (the missing value in every column).
func fuzzPredicateStore(t testing.TB) *Metadata {
	const rows = 129
	prices := make([]int64, rows)
	cats := make([]string, rows)
	tags := make([][]string, rows)
	for i := range prices {
		prices[i] = int64(i*37%200) - 50
		cats[i] = fmt.Sprintf("cat%d", i%7)
		if i%3 == 0 {
			tags[i] = append(tags[i], "even")
		}
		if i%5 == 0 {
			tags[i] = append(tags[i], "sale")
		}
	}
	m := NewMetadata(rows)
	for _, err := range []error{m.AddInt64("price", prices), m.AddEnum("category", cats), m.AddTags("tags", tags), m.AppendRow(nil)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// predicateShape returns a predicate's clause count (leaves plus and/or
// nodes) and nesting depth, walking the tree's children by reflection so the
// check needs nothing exported beyond what the parser already uses.
func predicateShape(t *testing.T, p reflect.Value) (clauses, depth int) {
	kids := p.FieldByName("kids")
	if !kids.IsValid() {
		t.Fatal("meta.Predicate has no kids field to walk")
	}
	clauses, depth = 1, 1
	for i := 0; i < kids.Len(); i++ {
		c, d := predicateShape(t, kids.Index(i))
		clauses += c
		depth = max(depth, d+1)
	}
	return clauses, depth
}

// FuzzUnmarshalPredicate feeds arbitrary bytes to the filter parser that
// nsgserve's /search and /search/batch bodies and the /wire frame's filter
// bytes reach. It must never panic; an accepted filter must respect the
// clause and depth caps; and compiling it against a fixed store either fails
// or yields a bitmap that agrees with Store.Matches on every row, with a
// count equal to its popcount (so no bit past the last row is set).
func FuzzUnmarshalPredicate(f *testing.F) {
	m := fuzzPredicateStore(f)
	f.Add([]byte(`{"col":"price","range":[-10,60]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalPredicate(data)
		if err != nil {
			return
		}
		if c, d := predicateShape(t, reflect.ValueOf(p)); c > MaxPredicateClauses || d > MaxPredicateDepth {
			t.Fatalf("accepted a filter of %d clauses at depth %d (caps %d, %d)", c, d, MaxPredicateClauses, MaxPredicateDepth)
		}
		bitmap, count, err := m.CompileAlloc(p)
		if err != nil {
			return
		}
		pop := 0
		for _, w := range bitmap {
			pop += bits.OnesCount64(w)
		}
		if pop != count {
			t.Fatalf("count %d != popcount %d", count, pop)
		}
		for i := 0; i < m.Rows(); i++ {
			if got, want := bitmap[i>>6]>>(i&63)&1 == 1, m.Matches(p, i); got != want {
				t.Fatalf("row %d: compiled bit %v, Matches %v", i, got, want)
			}
		}
	})
}
