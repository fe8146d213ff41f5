package heat

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"
)

// refSketch is the original Space-Saving sketch, kept as the oracle the
// heap-ordered Sketch is checked against: a map of entries and a linear
// scan for the victim on every untracked path.
type refSketch struct {
	k       int
	total   uint64
	entries map[string]*Entry
}

func newRefSketch(k int) *refSketch {
	return &refSketch{k: k, entries: make(map[string]*Entry, k)}
}

func (s *refSketch) Observe(o Observation) {
	s.total++
	e, ok := s.entries[o.Path]
	if !ok {
		if len(s.entries) < s.k {
			e = &Entry{Path: o.Path, Owner: o.Owner}
			s.entries[o.Path] = e
		} else {
			e = s.minEntry()
			delete(s.entries, e.Path)
			*e = Entry{Path: o.Path, Owner: o.Owner, Count: e.Count, ErrBound: e.Count}
			s.entries[o.Path] = e
		}
	}
	e.Count++
	e.Owner = o.Owner
	e.Bytes += o.Bytes
	if o.Relay {
		e.Relays++
	}
	if o.Miss {
		e.Misses++
	}
	if o.Seconds > 0 {
		e.LatencySum += o.Seconds
	}
}

// minEntry returns the tracked entry with the smallest count, ties broken
// by path.
func (s *refSketch) minEntry() *Entry {
	var min *Entry
	for _, e := range s.entries {
		if min == nil || e.Count < min.Count ||
			(e.Count == min.Count && e.Path < min.Path) {
			min = e
		}
	}
	return min
}

func (s *refSketch) Dump() Dump {
	d := Dump{Enabled: true, K: s.k, Total: s.total, Entries: make([]Entry, 0, len(s.entries))}
	for _, e := range s.entries {
		d.Entries = append(d.Entries, *e)
	}
	sortEntries(d.Entries)
	return d
}

// TestSketchVictimMatchesScan replays random streams with heavy count ties
// (few repeats over many more distinct paths than slots) through Sketch and
// the scanning reference: their dumps must be equal after every
// observation, so the heap's root is always the slot the scan would pick.
func TestSketchVictimMatchesScan(t *testing.T) {
	for _, k := range []int{1, 2, 64} {
		for trial := 0; trial < 6; trial++ {
			rng := rand.New(rand.NewSource(int64(1000*k + trial)))
			s, ref := New(Config{K: k}), newRefSketch(k)
			distinct := 3*k + 1 + rng.Intn(4*k+8)
			paths := make([]string, distinct)
			for i := range paths {
				// Unpadded numbers, so the path order is not the index order.
				paths[i] = "/d" + strconv.Itoa(rng.Intn(1000))
			}
			for n := 0; n < 40*k+200; n++ {
				i := rng.Intn(distinct)
				if trial%2 == 1 && rng.Intn(3) > 0 {
					i = rng.Intn(1 + distinct/8) // a hot head among the ties
				}
				o := Observation{Path: paths[i], Owner: i % 3, Bytes: int64(rng.Intn(100)),
					Relay: rng.Intn(2) == 0, Miss: rng.Intn(4) == 0, Seconds: float64(rng.Intn(5)) / 8}
				s.Observe(o)
				ref.Observe(o)
				if got, want := s.Dump(), ref.Dump(); !reflect.DeepEqual(got, want) {
					t.Fatalf("K=%d trial %d, observation %d (%s): dump\n%+v\nscan reference\n%+v",
						k, trial, n, o.Path, got, want)
				}
			}
		}
	}
}

// BenchmarkSketchObserve folds a uniform stream over 32 (nothing evicted at
// the default K), 256 and 4096 distinct paths into one sketch.
func BenchmarkSketchObserve(b *testing.B) {
	for _, distinct := range []int{32, 256, 4096} {
		b.Run(strconv.Itoa(distinct)+"paths", func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			obs := make([]Observation, 8192)
			for i := range obs {
				j := rng.Intn(distinct)
				obs[i] = Observation{Path: "/doc/" + strconv.Itoa(j), Owner: j % 4, Bytes: 1024,
					Relay: j%4 != 0, Seconds: 0.001, Replicas: 1}
			}
			s := New(Config{})
			for _, o := range obs {
				s.Observe(o)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Observe(obs[i%len(obs)])
			}
		})
	}
}
