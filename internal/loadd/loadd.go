// Package loadd implements SWEB's load daemon state: each node periodically
// broadcasts its CPU, disk, and network loads (every 2-3 seconds); peers
// store the samples, mark nodes that stay silent past a preset timeout as
// unavailable, and conservatively bump a peer's CPU load by Δ = 30% each
// time a request is redirected to it, so that several nodes acting on the
// same stale broadcast do not simultaneously dogpile an apparently idle
// peer ("unsynchronized overloading", Sec. 3.2).
//
// The Table is pure bookkeeping over float64 timestamps, so the identical
// code backs the discrete-event simulator (sim-time seconds) and the live
// UDP daemon (wall-clock seconds).
package loadd

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"sweb/internal/core"
)

// Sample is one load broadcast from a node.
type Sample struct {
	Node     int
	CPULoad  float64
	DiskLoad float64
	NetLoad  float64

	// Static capabilities travel with the sample so that nodes joining
	// the resource pool are usable without extra configuration exchange.
	CPUOpsPerSec    float64
	DiskBytesPerSec float64
	NetBytesPerSec  float64

	// SentAt is the sender's timestamp in seconds.
	SentAt float64

	// Incarnation names one run of the sending process, drawn at random
	// when it starts. A restarted node's clock starts over, so SentAt
	// orders samples only within one incarnation. Zero means unknown (the
	// simulator's samples) and never marks a restart.
	Incarnation uint64

	// CacheHints lists the sender's hottest cached document paths —
	// the cooperative-caching digest (the authors' follow-up work:
	// peers that know a document is hot in a remote memory can route
	// requests there instead of to the owner's disk).
	CacheHints []string
}

// Load is the broker's row for the node that advertised s. A node builds
// its own row the same way, from a sample of its live counters.
func (s Sample) Load() core.NodeLoad {
	return core.NodeLoad{Available: true, CPULoad: s.CPULoad, DiskLoad: s.DiskLoad, NetLoad: s.NetLoad,
		CPUOpsPerSec: s.CPUOpsPerSec, DiskBytesPerSec: s.DiskBytesPerSec, NetBytesPerSec: s.NetBytesPerSec}
}

// Validate reports obviously corrupt samples (non-finite numbers, negative
// loads or rates), which the live UDP listener drops rather than poisoning
// the table: one +Inf rate would price every request at that peer as free.
func (s Sample) Validate() error {
	switch {
	case s.Node < 0:
		return fmt.Errorf("loadd: negative node id %d", s.Node)
	case !finite(s.CPULoad, s.DiskLoad, s.NetLoad, s.CPUOpsPerSec, s.DiskBytesPerSec, s.NetBytesPerSec, s.SentAt):
		return fmt.Errorf("loadd: node %d: non-finite load, rate or timestamp", s.Node)
	case s.CPULoad < 0 || s.DiskLoad < 0 || s.NetLoad < 0:
		return fmt.Errorf("loadd: node %d: negative load", s.Node)
	case s.CPUOpsPerSec <= 0 || s.DiskBytesPerSec <= 0 || s.NetBytesPerSec <= 0:
		return fmt.Errorf("loadd: node %d: non-positive capability", s.Node)
	case len(s.CacheHints) > MaxCacheHints:
		return fmt.Errorf("loadd: node %d: %d cache hints exceeds %d", s.Node, len(s.CacheHints), MaxCacheHints)
	}
	for _, h := range s.CacheHints {
		if h == "" || len(h) > MaxHintLen {
			return fmt.Errorf("loadd: node %d: malformed cache hint", s.Node)
		}
	}
	return nil
}

// finite reports whether no v is NaN or ±Inf.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Limits on the cooperative-caching digest, bounding datagram size.
const (
	MaxCacheHints = 32
	MaxHintLen    = 255
)

// BroadcastRecord is one received broadcast as the gossip telemetry ring
// keeps it: the advertised load vector plus both clocks — the sender's
// SentAt (its own epoch) and the receiver's arrival time. Staleness math
// must use ReceivedAt: the two epochs are not comparable.
type BroadcastRecord struct {
	CPULoad    float64 `json:"cpu_load"`
	DiskLoad   float64 `json:"disk_load"`
	NetLoad    float64 `json:"net_load"`
	SentAt     float64 `json:"sent_at"`
	ReceivedAt float64 `json:"received_at"`
}

// HistoryCap bounds the per-peer broadcast ring: enough to cover a minute
// and a half of the paper's 2-3 s gossip period without growing forever.
const HistoryCap = 32

type entry struct {
	sample     Sample
	receivedAt float64
	haveSample bool
	// history is the bounded time-series of received broadcasts, newest
	// last — the scheduler's decision inputs made replayable.
	history []BroadcastRecord
	// bumps counts redirects issued to this peer since its last broadcast;
	// each adds Δ·CPUOpsPerSec-normalized load. Reset on fresh samples.
	bumps int
	// failures counts consecutive data-path failures (dial/fetch errors)
	// observed against this peer since its last success or broadcast. At
	// failLimit the peer is treated as unavailable even if its broadcasts
	// still look fresh — a node can gossip happily while its HTTP side is
	// wedged.
	failures int
}

// DefaultFailureLimit is the consecutive data-path failure count at which
// a peer is considered unavailable regardless of broadcast freshness.
const DefaultFailureLimit = 3

// Table is one node's view of the whole resource pool.
type Table struct {
	mu        sync.Mutex
	self      int
	timeout   float64 // seconds of silence before a peer is unavailable
	delta     float64 // Δ, the anti-herd CPU bump per redirect
	failLimit int     // consecutive data-path failures before unavailable
	entries   map[int]*entry
}

// NewTable creates a table for node self. timeout is the silence threshold
// in seconds ("a preset period of time"); delta is Δ (0.30 in the paper).
func NewTable(self int, timeout, delta float64) *Table {
	if timeout <= 0 {
		panic("loadd: timeout must be positive")
	}
	if delta < 0 {
		panic("loadd: delta must be non-negative")
	}
	return &Table{self: self, timeout: timeout, delta: delta,
		failLimit: DefaultFailureLimit, entries: make(map[int]*entry)}
}

// SetFailureLimit overrides the consecutive-failure threshold; n <= 0
// restores DefaultFailureLimit.
func (t *Table) SetFailureLimit(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 {
		n = DefaultFailureLimit
	}
	t.failLimit = n
}

// Self returns the owning node id.
func (t *Table) Self() int { return t.self }

// Update records a broadcast received at time now (seconds). A fresh sample
// clears any accumulated redirect bumps for that peer. Invalid samples are
// ignored and reported.
func (t *Table) Update(s Sample, now float64) error {
	_, err := t.Receive(s, now)
	return err
}

// Receive is Update that also reports whether s joined its sender to this
// node's view of the pool: it is the first sample from that node, the
// first after its entry went silent past the timeout, or the first from a
// new incarnation of it. A sample dropped as out of order never joins.
func (t *Table) Receive(s Sample, now float64) (joined bool, err error) {
	if err := s.Validate(); err != nil {
		return false, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[s.Node]
	if e == nil {
		e = &entry{}
		t.entries[s.Node] = e
	}
	restarted := e.haveSample && s.Incarnation != 0 && e.sample.Incarnation != 0 &&
		s.Incarnation != e.sample.Incarnation
	// Out-of-order datagrams: keep the newest sender timestamp. A restarted
	// sender's clock starts over, so the check holds within one incarnation.
	if e.haveSample && !restarted && s.SentAt < e.sample.SentAt {
		return false, nil
	}
	joined = !e.haveSample || now-e.receivedAt > t.timeout || restarted
	e.sample = s
	e.receivedAt = now
	e.haveSample = true
	e.bumps = 0
	// A fresh broadcast proves the node is alive again; the data path
	// re-earns trust until the next failure streak.
	e.failures = 0
	e.history = append(e.history, BroadcastRecord{
		CPULoad: s.CPULoad, DiskLoad: s.DiskLoad, NetLoad: s.NetLoad,
		SentAt: s.SentAt, ReceivedAt: now,
	})
	if len(e.history) > HistoryCap {
		e.history = e.history[len(e.history)-HistoryCap:]
	}
	return joined, nil
}

// Age returns the seconds since node's last broadcast as of now, or -1
// when no sample has ever arrived. This is the staleness of the
// scheduler's input for that peer — the quantity the gossip gauges track.
func (t *Table) Age(node int, now float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[node]
	if e == nil || !e.haveSample {
		return -1
	}
	return now - e.receivedAt
}

// Advertised returns node's last broadcast sample as received, without the
// anti-herd bumps the broker's Snapshot applies — the "what the peer said"
// half of the advertised-vs-observed comparison.
func (t *Table) Advertised(node int) (Sample, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[node]
	if e == nil || !e.haveSample {
		return Sample{}, false
	}
	return e.sample, true
}

// PeerHistory is one peer's broadcast time-series.
type PeerHistory struct {
	Node    int               `json:"node"`
	Records []BroadcastRecord `json:"records"`
}

// HistorySnapshot copies every peer's broadcast ring, sorted by node id.
func (t *Table) HistorySnapshot() []PeerHistory {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]int, 0, len(t.entries))
	for id, e := range t.entries {
		if len(e.history) > 0 {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	out := make([]PeerHistory, 0, len(ids))
	for _, id := range ids {
		out = append(out, PeerHistory{
			Node:    id,
			Records: append([]BroadcastRecord(nil), t.entries[id].history...),
		})
	}
	return out
}

// MarkFailure records one data-path failure against node (an internal
// fetch that could not dial, write, or read the peer). It returns the new
// consecutive-failure count. The peer becomes unavailable once the count
// reaches the failure limit, recovering on MarkSuccess or a fresh Update.
func (t *Table) MarkFailure(node int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[node]
	if e == nil {
		e = &entry{}
		t.entries[node] = e
	}
	e.failures++
	return e.failures
}

// MarkSuccess records a successful data-path exchange with node, clearing
// any failure streak.
func (t *Table) MarkSuccess(node int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.entries[node]; e != nil {
		e.failures = 0
	}
}

// Failures returns node's current consecutive data-path failure count.
func (t *Table) Failures(node int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.entries[node]; e != nil {
		return e.failures
	}
	return 0
}

// Bump conservatively inflates the local view of node's CPU load after
// redirecting a request to it. The bump decays when the peer's next
// broadcast arrives.
func (t *Table) Bump(node int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.entries[node]; e != nil {
		e.bumps++
	}
}

// Known returns the node ids with at least one sample, in unspecified order.
func (t *Table) Known() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, 0, len(t.entries))
	for id, e := range t.entries {
		if e.haveSample {
			out = append(out, id)
		}
	}
	return out
}

// usable is the one availability rule Snapshot and Health apply: a sample
// heard within the timeout, and a data path that is not in a failure
// streak at or past the limit even while broadcasts look fresh. The
// caller holds t.mu.
func (t *Table) usable(e *entry, now float64) bool {
	return e != nil && e.haveSample && now-e.receivedAt <= t.timeout && e.failures < t.failLimit
}

// PeerHealth is one row of the table's introspection snapshot (served by
// the live nodes under /sweb/status): the raw ingredients of the
// availability verdict — broadcast freshness, the data-path failure
// streak, and pending anti-herd bumps — next to the last advertised loads.
type PeerHealth struct {
	Node       int     `json:"node"`
	HaveSample bool    `json:"have_sample"`
	Available  bool    `json:"available"`
	Failures   int     `json:"failures"`
	Bumps      int     `json:"bumps"`
	AgeSeconds float64 `json:"age_seconds"` // since the last broadcast; -1 with no sample
	CPULoad    float64 `json:"cpu_load"`
	DiskLoad   float64 `json:"disk_load"`
	NetLoad    float64 `json:"net_load"`
}

// Health snapshots every known entry for introspection, sorted by node id,
// applying the same freshness and failure-streak rules as Snapshot. Where
// Snapshot renders the broker's (bump-inflated) view, Health reports the
// raw samples plus the verdict's inputs, so an operator can see *why* a
// peer is being scheduled around.
func (t *Table) Health(now float64) []PeerHealth {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]int, 0, len(t.entries))
	for id := range t.entries {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]PeerHealth, 0, len(ids))
	for _, id := range ids {
		e := t.entries[id]
		h := PeerHealth{
			Node:       id,
			HaveSample: e.haveSample,
			Failures:   e.failures,
			Bumps:      e.bumps,
			AgeSeconds: -1,
		}
		if e.haveSample {
			h.AgeSeconds = now - e.receivedAt
			h.Available = t.usable(e, now)
			h.CPULoad = e.sample.CPULoad
			h.DiskLoad = e.sample.DiskLoad
			h.NetLoad = e.sample.NetLoad
		}
		out = append(out, h)
	}
	return out
}

// Forget drops a peer entirely (a node leaving the resource pool
// gracefully). Silent departures are handled by the timeout.
func (t *Table) Forget(node int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.entries, node)
}

// CachedAt reports whether node's last broadcast advertised path in its
// cache digest. Stale entries (past the timeout) report false.
func (t *Table) CachedAt(node int, path string, now float64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[node]
	if e == nil || !e.haveSample || now-e.receivedAt > t.timeout {
		return false
	}
	for _, h := range e.sample.CacheHints {
		if h == path {
			return true
		}
	}
	return false
}

// Snapshot renders the table as the broker's []core.NodeLoad, indexed by
// node id 0..n-1, applying staleness and bumps as of time now (seconds).
// Nodes without a recent sample have Available == false.
func (t *Table) Snapshot(n int, now float64) []core.NodeLoad {
	return t.SnapshotInto(nil, n, now)
}

// SnapshotInto is Snapshot rendered into dst's storage when it has room
// for n rows, into a new slice otherwise; every row is overwritten. It
// returns the n rows.
func (t *Table) SnapshotInto(dst []core.NodeLoad, n int, now float64) []core.NodeLoad {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cap(dst) < n {
		dst = make([]core.NodeLoad, n)
	}
	loads := dst[:n]
	for id := 0; id < n; id++ {
		e := t.entries[id]
		if !t.usable(e, now) {
			loads[id] = core.NodeLoad{}
			continue
		}
		// Each redirect since the last broadcast adds Δ load (relative to
		// one runnable job), i.e. Δ=0.3 means "assume the request I just
		// sent adds 30% of a job's worth of extra pressure". The paper
		// bumps the CPU load — the only input of its t_CPU term that the
		// sender influences; this multi-faceted table bumps the whole
		// vector so the same anti-herd logic protects the disk and
		// network terms that dominate large-file costs.
		bump := t.delta * float64(e.bumps)
		ld := e.sample.Load()
		ld.CPULoad += bump * (1 + ld.CPULoad)
		ld.DiskLoad += bump * (1 + ld.DiskLoad)
		ld.NetLoad += bump * (1 + ld.NetLoad)
		loads[id] = ld
	}
	return loads
}
