// Package heat tracks per-document request telemetry on a bounded
// heavy-hitter sketch. Each node keeps a Space-Saving (Misra-Gries
// family) top-K summary of the paths it served — request count, bytes,
// relays, cache misses, and latency sum per path — in O(K) memory no
// matter how many distinct documents the workload touches. Both the
// live server (internal/httpd) and the simulator (internal/simsrv)
// feed the same Observation schema, so one merge/advise/render pipeline
// serves either substrate.
//
// Space-Saving guarantees: with K counters over N observations, any
// path whose true count exceeds N/K is present in the sketch, and every
// reported count overestimates the truth by at most the entry's
// ErrBound (the count the evicted predecessor bequeathed). The
// auxiliary sums (bytes, relays, misses, latency) are tracked only
// while a path holds a slot, so they may undercount for paths that
// churned in and out; for the heavy hitters the advisor cares about
// they converge on the truth.
package heat

import (
	"sort"
	"sync"
)

// DefaultK is the sketch width when Config.K is zero: generous for the
// document populations this repo's workloads use while keeping the
// per-node summary a few KB.
const DefaultK = 64

// Config sizes a node's sketch. The zero value takes the default.
type Config struct {
	// K is the number of tracked paths (<= 0: DefaultK).
	K int
}

// Observation is one served request, the schema both substrates feed.
type Observation struct {
	// Path is the document identity the sketch keys on.
	Path string
	// Owner is the node that holds the document's only copy (-1 when
	// ownership does not apply, e.g. CGI output).
	Owner int
	// Bytes is the response body size actually served.
	Bytes int64
	// Relay marks a request served by fetching the document from its
	// owner over the interconnect (the SWEB "fetch_nfs" phase).
	Relay bool
	// Miss marks a page-cache miss on the serving node.
	Miss bool
	// Seconds is the request's total service time.
	Seconds float64
	// Replicas is the document's replica-set size at serve time. The
	// sketch keeps the last one per tracked path (see Each); it is not
	// part of the Dump.
	Replicas int
}

// Entry is one tracked path's accumulated telemetry as exported in a
// Dump. Count overestimates the true request count by at most ErrBound.
type Entry struct {
	Path       string  `json:"path"`
	Owner      int     `json:"owner"`
	Count      uint64  `json:"count"`
	ErrBound   uint64  `json:"err_bound"`
	Bytes      int64   `json:"bytes"`
	Relays     uint64  `json:"relays"`
	Misses     uint64  `json:"misses"`
	LatencySum float64 `json:"latency_sum_seconds"`
}

// Dump is one node's sketch snapshot — the /sweb/heat payload. Entries
// are sorted by count descending, then path, so the hottest documents
// lead. Both substrates marshal the identical schema.
type Dump struct {
	Enabled bool    `json:"enabled"`
	Node    int     `json:"node"`
	K       int     `json:"k"`
	Total   uint64  `json:"total"`
	Entries []Entry `json:"entries"`
}

// Sketch is a node's bounded per-document summary. All methods are safe
// for concurrent use and nil-safe: a nil *Sketch (telemetry disabled)
// no-ops everywhere, so call sites never branch.
type Sketch struct {
	k  int
	mu sync.Mutex
	// total counts every observation, tracked or not — the denominator
	// for load shares and the N in the N/K guarantee.
	total uint64
	slots map[string]*slot
	// heap is a binary min-heap on (Count, Path) over the tracked slots:
	// its root is the Space-Saving victim, the smallest count with ties
	// broken by path, found in O(1) and re-keyed in O(log K).
	heap []*slot
}

// slot is one tracked path: its exported entry, the replica-set size its
// last observation reported, and its position in the heap.
type slot struct {
	Entry
	replicas int
	index    int
}

// New returns an empty sketch sized by cfg.
func New(cfg Config) *Sketch {
	k := cfg.K
	if k <= 0 {
		k = DefaultK
	}
	return &Sketch{k: k, slots: make(map[string]*slot, k), heap: make([]*slot, 0, k)}
}

// Observe folds one served request into the sketch. When the sketch is
// full and o.Path is untracked, the minimum-count entry is evicted and
// its count bequeathed as the newcomer's starting count and error bound
// — the Space-Saving replacement rule.
func (s *Sketch) Observe(o Observation) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total++
	e, ok := s.slots[o.Path]
	if !ok {
		if len(s.heap) < s.k {
			e = &slot{Entry: Entry{Path: o.Path, Owner: o.Owner}, index: len(s.heap)}
			s.heap = append(s.heap, e)
		} else {
			// Re-key the victim's slot in place. The newcomer inherits
			// the victim's count (the overestimate that keeps heavy
			// hitters from being starved out) but none of its auxiliary
			// sums — those belong to the evicted path.
			e = s.heap[0]
			delete(s.slots, e.Path)
			e.Entry = Entry{Path: o.Path, Owner: o.Owner, Count: e.Count, ErrBound: e.Count}
		}
		s.slots[o.Path] = e
	}
	e.Count++
	s.fix(e.index)
	e.replicas = o.Replicas
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

// The heap's order: smaller count first, ties broken by path for
// determinism. Paths are unique, so the order is total.
func (s *Sketch) less(i, j int) bool {
	a, b := s.heap[i], s.heap[j]
	if a.Count != b.Count {
		return a.Count < b.Count
	}
	return a.Path < b.Path
}

func (s *Sketch) swap(i, j int) {
	h := s.heap
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}

// fix restores the heap after the slot at i changed its key. A count only
// grows, but a slot just appended still has to climb.
func (s *Sketch) fix(i int) {
	i0, n := i, len(s.heap)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && s.less(r, j) {
			j = r
		}
		if !s.less(j, i) {
			break
		}
		s.swap(i, j)
		i = j
	}
	if i > i0 {
		return
	}
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s.swap(i, p)
		i = p
	}
}

// Total reports how many observations the sketch has absorbed. Zero on
// a nil sketch.
func (s *Sketch) Total() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Tracked reports how many paths currently hold a slot. Zero on nil.
func (s *Sketch) Tracked() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.heap)
}

// Each calls fn with every tracked entry and the replica-set size the
// path's last observation reported, in no particular order, holding the
// sketch's lock: fn must neither keep e nor call back into s. Nil-safe.
func (s *Sketch) Each(fn func(e *Entry, replicas int)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.heap {
		fn(&e.Entry, e.replicas)
	}
}

// Dump snapshots the sketch. A nil sketch dumps Enabled:false so a
// scraper can tell "off" from "idle".
func (s *Sketch) Dump() Dump {
	if s == nil {
		return Dump{}
	}
	s.mu.Lock()
	d := Dump{Enabled: true, K: s.k, Total: s.total,
		Entries: make([]Entry, 0, len(s.heap))}
	for _, e := range s.heap {
		d.Entries = append(d.Entries, e.Entry)
	}
	s.mu.Unlock()
	sortEntries(d.Entries)
	return d
}

// Hot returns the n hottest tracked paths, hottest first — the ranking
// /sweb/status surfaces. Nil-safe.
func (s *Sketch) Hot(n int) []string {
	d := s.Dump()
	if len(d.Entries) > n {
		d.Entries = d.Entries[:n]
	}
	out := make([]string, len(d.Entries))
	for i, e := range d.Entries {
		out[i] = e.Path
	}
	return out
}

func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Count != es[j].Count {
			return es[i].Count > es[j].Count
		}
		return es[i].Path < es[j].Path
	})
}
