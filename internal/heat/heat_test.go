package heat

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestNilSketchIsSafe(t *testing.T) {
	var s *Sketch
	s.Observe(Observation{Path: "/a"})
	if s.Total() != 0 || s.Tracked() != 0 {
		t.Fatal("nil sketch should report zeros")
	}
	d := s.Dump()
	if d.Enabled {
		t.Fatal("nil sketch dump must be Enabled:false")
	}
	if got := s.Hot(4); len(got) != 0 {
		t.Fatalf("nil sketch Hot = %v", got)
	}
}

func TestSketchBasicAccumulation(t *testing.T) {
	s := New(Config{K: 4})
	for i := 0; i < 3; i++ {
		s.Observe(Observation{Path: "/hot", Owner: 1, Bytes: 100,
			Relay: i > 0, Miss: i == 0, Seconds: 0.5})
	}
	s.Observe(Observation{Path: "/cold", Owner: 0, Bytes: 7})
	d := s.Dump()
	if !d.Enabled || d.Total != 4 || len(d.Entries) != 2 {
		t.Fatalf("dump = %+v", d)
	}
	e := d.Entries[0]
	if e.Path != "/hot" || e.Count != 3 || e.ErrBound != 0 ||
		e.Bytes != 300 || e.Relays != 2 || e.Misses != 1 || e.Owner != 1 {
		t.Fatalf("hot entry = %+v", e)
	}
	if e.LatencySum < 1.49 || e.LatencySum > 1.51 {
		t.Fatalf("latency sum = %v", e.LatencySum)
	}
	if got := s.Hot(1); len(got) != 1 || got[0] != "/hot" {
		t.Fatalf("Hot(1) = %v", got)
	}
}

func TestSketchEvictionInheritsBound(t *testing.T) {
	s := New(Config{K: 2})
	s.Observe(Observation{Path: "/a"})
	s.Observe(Observation{Path: "/a"})
	s.Observe(Observation{Path: "/b"})
	// Full: /c replaces the minimum (/b, count 1) and inherits it.
	s.Observe(Observation{Path: "/c", Bytes: 9})
	d := s.Dump()
	if len(d.Entries) != 2 {
		t.Fatalf("entries = %+v", d.Entries)
	}
	var c *Entry
	for i := range d.Entries {
		if d.Entries[i].Path == "/c" {
			c = &d.Entries[i]
		}
	}
	if c == nil || c.Count != 2 || c.ErrBound != 1 || c.Bytes != 9 {
		t.Fatalf("replacement entry = %+v", c)
	}
}

// TestSketchVsExactOracle is the randomized property test: against an
// exact count oracle, (1) every path whose true count exceeds Total/K
// must be tracked (the Space-Saving heavy-hitter guarantee), (2) every
// tracked count is an overestimate by at most its error bound, and (3)
// every error bound is at most Total/K.
// TestSketchChurnAllocatesNothing: once the K slots are taken, an eviction
// re-keys the victim's slot in place, so a working set larger than the
// sketch costs no allocation per observation.
func TestSketchChurnAllocatesNothing(t *testing.T) {
	s := New(Config{K: 8})
	paths := make([]string, 32)
	for i := range paths {
		paths[i] = "/churn/" + strconv.Itoa(i)
		s.Observe(Observation{Path: paths[i], Bytes: 1})
	}
	i := 0
	if n := testing.AllocsPerRun(2000, func() {
		s.Observe(Observation{Path: paths[i%len(paths)], Owner: 1, Bytes: 10, Relay: true, Seconds: 0.001})
		i++
	}); n != 0 {
		t.Fatalf("%v allocations per churning observation, want 0", n)
	}
	// A dump taken before further evictions is a copy, not a view of slots.
	d := s.Dump()
	before := append([]Entry(nil), d.Entries...)
	for j := 0; j < 64; j++ {
		s.Observe(Observation{Path: paths[j%len(paths)]})
	}
	for j := range before {
		if d.Entries[j] != before[j] {
			t.Fatalf("dump entry %d changed under later observations", j)
		}
	}
}

func TestSketchVsExactOracle(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		k := 8 + rng.Intn(24)
		s := New(Config{K: k})
		exact := map[string]uint64{}
		paths := make([]string, 4*k)
		for i := range paths {
			paths[i] = fmt.Sprintf("/doc%03d", i)
		}
		n := 2000 + rng.Intn(3000)
		for i := 0; i < n; i++ {
			// Zipf-ish skew: low indexes dominate.
			idx := int(float64(len(paths)) * rng.Float64() * rng.Float64())
			if idx >= len(paths) {
				idx = len(paths) - 1
			}
			p := paths[idx]
			exact[p]++
			s.Observe(Observation{Path: p})
		}
		d := s.Dump()
		if d.Total != uint64(n) {
			t.Fatalf("trial %d: total %d want %d", trial, d.Total, n)
		}
		tracked := map[string]Entry{}
		for _, e := range d.Entries {
			tracked[e.Path] = e
		}
		bound := uint64(n / k)
		for p, c := range exact {
			if c > bound {
				if _, ok := tracked[p]; !ok {
					t.Fatalf("trial %d: heavy hitter %s (count %d > %d/%d) not tracked",
						trial, p, c, n, k)
				}
			}
		}
		for p, e := range tracked {
			truth := exact[p]
			if e.Count < truth {
				t.Fatalf("trial %d: %s count %d underestimates truth %d",
					trial, p, e.Count, truth)
			}
			if e.Count-truth > e.ErrBound {
				t.Fatalf("trial %d: %s overestimate %d exceeds bound %d",
					trial, p, e.Count-truth, e.ErrBound)
			}
			if e.ErrBound > bound {
				t.Fatalf("trial %d: %s bound %d exceeds N/K=%d",
					trial, p, e.ErrBound, bound)
			}
		}
	}
}

func TestSketchConcurrentObserve(t *testing.T) {
	s := New(Config{K: 16})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Observe(Observation{Path: fmt.Sprintf("/g%d", g%4), Bytes: 1})
			}
		}(g)
	}
	wg.Wait()
	if s.Total() != 4000 {
		t.Fatalf("total = %d", s.Total())
	}
}

func TestMergeSumsAcrossNodesAndSkipsDisabled(t *testing.T) {
	d0 := Dump{Enabled: true, Node: 0, Total: 10, Entries: []Entry{
		{Path: "/hot", Owner: 0, Count: 8, Bytes: 80, Relays: 0, Misses: 1},
		{Path: "/b", Owner: 1, Count: 2, Bytes: 4},
	}}
	d1 := Dump{Enabled: true, Node: 1, Total: 6, Entries: []Entry{
		{Path: "/hot", Owner: 0, Count: 6, Bytes: 60, Relays: 6, Misses: 6},
	}}
	m := Merge([]Dump{d0, d1, {}})
	if m.Total != 16 || len(m.Entries) != 2 {
		t.Fatalf("merged = %+v", m)
	}
	hot := m.Entries[0]
	if hot.Path != "/hot" || hot.Count != 14 || hot.Relays != 6 ||
		hot.Bytes != 140 || hot.Owner != 0 {
		t.Fatalf("hot = %+v", hot)
	}
	if hot.ByNode[0] != 8 || hot.ByNode[1] != 6 {
		t.Fatalf("by-node = %+v", hot.ByNode)
	}
}

func TestAdviseRanksAndPredicts(t *testing.T) {
	m := Merged{Total: 100, Entries: []MergedEntry{
		{Path: "/hot", Owner: 0, Count: 60, Relays: 30,
			ByNode: map[int]uint64{0: 20, 1: 30, 2: 10}},
		{Path: "/mild", Owner: 2, Count: 10, Relays: 0,
			ByNode: map[int]uint64{2: 10}},
	}}
	advs := Advise(m)
	if len(advs) != 2 || advs[0].Path != "/hot" {
		t.Fatalf("advice = %+v", advs)
	}
	a := advs[0]
	if a.Share != 0.6 || a.Owner != 0 || a.ReplicaNode != 1 {
		t.Fatalf("hot advice = %+v", a)
	}
	if a.HomeShare < 0.33 || a.HomeShare > 0.34 {
		t.Fatalf("home share = %v", a.HomeShare)
	}
	// 30 relays * (30/40 landings on node 1) = 22.5 saved of 100 total.
	if a.PredictedReduction < 0.224 || a.PredictedReduction > 0.226 {
		t.Fatalf("predicted reduction = %v", a.PredictedReduction)
	}
	mild := advs[1]
	if mild.HomeShare != 1 || mild.ReplicaNode != -1 || mild.PredictedReduction != 0 {
		t.Fatalf("mild advice = %+v", mild)
	}
	if got := Advise(Merged{}); got != nil {
		t.Fatalf("empty advise = %+v", got)
	}
}

func TestRenderTables(t *testing.T) {
	m := Merge([]Dump{{Enabled: true, Node: 0, Total: 4, Entries: []Entry{
		{Path: "/hot", Owner: 0, Count: 4, Bytes: 4096, Relays: 1,
			Misses: 2, LatencySum: 0.4},
	}}})
	out := Render("heat", m, 8)
	for _, want := range []string{"path", "share", "/hot", "node0", "100.0%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	adv := RenderAdvice("advisor", Advise(m), 8)
	for _, want := range []string{"replica-on", "pred-reduction", "/hot"} {
		if !strings.Contains(adv, want) {
			t.Fatalf("advice render missing %q:\n%s", want, adv)
		}
	}
	empty := Render("heat", Merged{}, 8)
	if !strings.Contains(empty, "(no documents)") {
		t.Fatalf("empty render:\n%s", empty)
	}
}

func TestDumpSortedHottestFirst(t *testing.T) {
	s := New(Config{K: 8})
	for i := 0; i < 5; i++ {
		s.Observe(Observation{Path: "/a"})
	}
	for i := 0; i < 9; i++ {
		s.Observe(Observation{Path: "/b"})
	}
	s.Observe(Observation{Path: "/c"})
	d := s.Dump()
	got := make([]string, len(d.Entries))
	for i, e := range d.Entries {
		got[i] = e.Path
	}
	want := []string{"/b", "/a", "/c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v want %v", got, want)
		}
	}
}
