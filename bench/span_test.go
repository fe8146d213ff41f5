package main

import (
	"testing"
	"time"
)

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "write", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "wait", Start: 20, End: 50},  // overlaps write: counted once
		{ID: 4, Parent: 1, Name: "body", Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 5, Parent: 3, Name: "inner", Start: 25, End: 45}, // grandchild: not the root's business
		{ID: 6, Parent: 1, Name: "early", Start: -20, End: 5}, // starts before the parent: clipped
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 100 - (5 + 40 + 10), 2: 20, 3: 30 - 20, 4: 30, 5: 20, 6: 25} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	sum := summarizeSpans(spans)
	if s := sum["request"]; s.Count != 1 || s.P50 != 100 || s.SelfP50 != 45 {
		t.Errorf("request summary %+v", s)
	}
}

func TestSpanLogLanesAndNilLog(t *testing.T) {
	epoch := time.Unix(1000, 0)
	seen := map[int64]bool{}
	for lane := 0; lane < 3; lane++ {
		l := newSpanLog(epoch, lane, 3)
		root := l.reserve()
		l.add(root, 7, "write", epoch.Add(time.Millisecond), epoch.Add(3*time.Millisecond))
		l.finish(root, 0, 7, "request", epoch, epoch.Add(5*time.Millisecond))
		for _, s := range l.spans {
			if s.ID == 0 || seen[s.ID] {
				t.Fatalf("lane %d: id %d is zero or reused", lane, s.ID)
			}
			seen[s.ID] = true
		}
		if w := l.spans[0]; w.Parent != root || w.Start != 1000 || w.End != 3000 || w.Trace != 7 {
			t.Errorf("lane %d: child %+v under root %d", lane, w, root)
		}
	}
	// Tracing off is a nil log: every call is a no-op.
	var off *spanLog
	if id := off.reserve(); id != 0 {
		t.Errorf("nil log reserved id %d", id)
	}
	off.finish(0, 0, 0, "x", epoch, epoch)
	if off.add(0, 0, "x", epoch, epoch) != 0 {
		t.Error("nil log recorded a span")
	}
}
