package graphutil

import "testing"

func TestEpochVisitedBasic(t *testing.T) {
	var v EpochVisited
	v.Reset(10)
	if !v.Visit(3) {
		t.Fatal("first visit of 3 reported as already visited")
	}
	if v.Visit(3) {
		t.Fatal("second visit of 3 reported as new")
	}
	if !v.Visited(3) || v.Visited(4) {
		t.Fatal("Visited mismatch")
	}
	v.Reset(10)
	if v.Visited(3) {
		t.Fatal("Reset did not clear membership")
	}
	if !v.Visit(3) {
		t.Fatal("visit after Reset reported as already visited")
	}
}

func TestEpochVisitedGrow(t *testing.T) {
	var v EpochVisited
	v.Reset(4)
	v.Visit(2)
	v.Reset(100) // grow mid-life
	for id := int32(0); id < 100; id++ {
		if v.Visited(id) {
			t.Fatalf("node %d visited after grow+reset", id)
		}
	}
	if !v.Visit(99) || v.Visit(99) {
		t.Fatal("visit semantics broken after grow")
	}
}

func TestEpochVisitedWraparound(t *testing.T) {
	var v EpochVisited
	v.Reset(4)
	v.Visit(1)
	// Force the epoch counter to the wrap point and reset across it.
	v.epoch = ^uint32(0)
	v.stamp[2] = v.epoch // pretend 2 was visited in the last epoch
	v.Reset(4)
	if v.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", v.epoch)
	}
	for id := int32(0); id < 4; id++ {
		if v.Visited(id) {
			t.Fatalf("node %d leaked membership across epoch wrap", id)
		}
	}
}

// TestEpochVisitedStage: Stage keeps what a Visit loop over the same ids
// would keep, in the same order, and leaves the same stamps.
func TestEpochVisitedStage(t *testing.T) {
	var a, b EpochVisited
	a.Reset(8)
	b.Reset(8)
	for _, id := range []int32{1, 6} {
		a.Visit(id)
		b.Visit(id)
	}
	ids := []int32{0, 1, 5, 5, 6, 7, 0, 3}
	got := a.Stage(nil, ids)
	var want []int32
	for _, id := range ids {
		if b.Visit(id) {
			want = append(want, id)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("Stage kept %v, Visit loop %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Stage kept %v, Visit loop %v", got, want)
		}
	}
	for id := int32(0); id < 8; id++ {
		if a.Visited(id) != b.Visited(id) {
			t.Fatalf("node %d: Stage visited %v, Visit loop %v", id, a.Visited(id), b.Visited(id))
		}
	}
}
