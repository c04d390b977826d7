package main

import (
	"math"
	"testing"
)

func TestUnionLenCountsOverlapOnce(t *testing.T) {
	for _, c := range []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{0, 10}, {20, 30}}, 20},
		{[][2]int64{{0, 10}, {5, 15}}, 15},
		{[][2]int64{{5, 15}, {0, 10}, {12, 20}}, 20}, // unsorted, chained
		{[][2]int64{{0, 30}, {5, 10}}, 30},           // nested
		{[][2]int64{{0, 10}, {10, 20}}, 20},          // touching
	} {
		if got := unionLen(c.iv); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		// Two children overlapping each other on [30, 50] cover [10, 70].
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 70},
		// A child running past its parent's end only covers [90, 100].
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "a.inner", Start: 20, End: 25},
	}
	self := selfTimes(spans)
	for id, want := range map[int32]int64{1: 100 - 60 - 10, 2: 40 - 5, 3: 40, 4: 30, 5: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestSelfTimeKeepsWaitingOnWorkerTracks(t *testing.T) {
	// A pool span on the op's track waits for two workers; their time
	// is theirs, and the wait stays the pool's self time.
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "pool", Start: 10, End: 90},
		{ID: 3, Parent: 2, Track: 1, Name: "worker", Start: 10, End: 90},
		{ID: 4, Parent: 2, Track: 2, Name: "worker", Start: 10, End: 80},
		{ID: 5, Parent: 3, Track: 1, Name: "cell", Start: 10, End: 85},
	}
	self := selfTimes(spans)
	for id, want := range map[int32]int64{1: 20, 2: 80, 3: 5, 4: 70, 5: 75} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	cov := opCoverage(spans)
	if len(cov) != 1 || math.Abs(cov[0]-1) > 1e-12 {
		t.Errorf("track-0 self times should sum to the op's wall time, got shares %v", cov)
	}
	if _, err := checkSelfSums(spans); err != nil {
		t.Error(err)
	}
	// A child that escapes its parent breaks the accounting.
	bad := append(spans[:1:1], span{ID: 2, Parent: 1, Name: "late", Start: 50, End: 150})
	if _, err := checkSelfSums(bad); err == nil {
		t.Error("a child span outside its op should fail the self-time check")
	}
}

func TestTracerNilIsDisabled(t *testing.T) {
	var tr *tracer
	id := tr.begin(0, 0, "x")
	tr.end(id)
	if id != 0 || tr.closed() != nil {
		t.Error("a nil tracer must record nothing")
	}
	tr = newTracer()
	root := tr.begin(7, 0, "op")
	child := tr.fork(7, root, 3, "worker")
	grand := tr.begin(7, child, "cell")
	tr.end(grand)
	tr.end(child)
	open := tr.begin(7, root, "unfinished")
	_ = open
	tr.end(root)
	got := tr.closed()
	if len(got) != 3 {
		t.Fatalf("closed() = %d spans, want the 3 finished ones", len(got))
	}
	if got[1].Track != 3 || got[2].Track != 3 || got[0].Track != 0 {
		t.Errorf("tracks = %d %d %d, want 0 3 3", got[0].Track, got[1].Track, got[2].Track)
	}
}

func TestMergeSpansRenumbers(t *testing.T) {
	dst := []span{{ID: 1}, {ID: 4, Parent: 1}}
	src := []span{{ID: 1}, {ID: 2, Parent: 1}}
	got := mergeSpans(dst, src, 9)
	if got[2].ID != 5 || got[3].ID != 6 || got[3].Parent != 5 || got[2].Parent != 0 || got[3].Op != 9 {
		t.Errorf("merged spans = %+v", got[2:])
	}
}
