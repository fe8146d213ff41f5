// Package flight is the always-on request black box: every request a
// node handles leaves a compact fixed-size record in a bounded ring, and
// slow or errored requests are additionally retained in a separate
// "notable" ring so a burst of healthy traffic cannot evict the evidence
// of the one that went wrong. A record is also the broker's decision audit:
// it carries the per-node cost table behind the choice. The package is
// shared verbatim by the live server and the simulator, so one record
// schema and one parity test cover both substrates.
package flight

import (
	"math"
	"sync"

	"sweb/internal/core"
)

// Defaults for a recorder built from a zero Config.
const (
	DefaultCap         = 512
	DefaultNotableCap  = 128
	DefaultSlowSeconds = 1.0
)

// TableDepth is how many of a node's most recent records keep their
// decision's cost table, the depth of the decision audit the live node
// kept before the flight record carried it. A table on every record of
// both rings raised the peak memory of the six-node sim_meiko benchmark
// by half.
const TableDepth = 128

// Notability classes stamped on records routed to the notable ring.
const (
	NotableError = "error"
	NotableSlow  = "slow"
)

// Record is one request's black-box entry. Fields are plain values so a
// record is a single copy in and a single copy out; durations are
// seconds, with -1 meaning "not measured" (no byte ever written, no
// prediction made, no target chosen).
type Record struct {
	Seq       int64   `json:"seq"`
	AtSeconds float64 `json:"at_seconds"` // arrival, on the node's epoch clock
	Node      int     `json:"node"`
	ConnID    int64   `json:"conn_id"`
	Path      string  `json:"path"`
	Status    int     `json:"status"` // 0: no (or failed) response write
	Bytes     int64   `json:"bytes"`
	TraceID   string  `json:"trace_id,omitempty"`

	// Decision summary.
	Policy           string  `json:"policy,omitempty"`
	Target           int     `json:"target"` // -1 when the broker never ran
	Redirected       bool    `json:"redirected"`
	CacheHit         bool    `json:"cache_hit"`
	PredictedSeconds float64 `json:"predicted_seconds"` // broker t_s estimate, -1 none
	// Candidates is the decision's cost table, one row per node, empty
	// when the policy priced nothing. A dump carries it for the node's
	// TableDepth most recent records, with every infinite or undefined
	// figure as -1.
	Candidates []core.CostBreakdown `json:"candidates"`

	// Phase timings.
	ParseSeconds   float64 `json:"parse_seconds"`
	AnalyzeSeconds float64 `json:"analyze_seconds"`
	FulfillSeconds float64 `json:"fulfill_seconds"` // -1 when fulfillment never began
	TTFBSeconds    float64 `json:"ttfb_seconds"`    // -1 when no response head was sent
	TotalSeconds   float64 `json:"total_seconds"`

	Notable string `json:"notable,omitempty"` // "error", "slow", or ""
}

// Config sizes a Recorder. Zero values take the defaults; a negative
// SlowSeconds disables slow-routing (errors still reach the notable ring).
type Config struct {
	Cap         int
	NotableCap  int
	SlowSeconds float64
}

// ring is a fixed-size overwrite buffer, oldest-first on snapshot. It
// grows to its size as records arrive, so a node holds only the records it
// has had.
type ring struct {
	recs []Record
	size int
	next int
	full bool
}

func newRing(n int) ring { return ring{size: n} }

func (r *ring) add(rec Record) {
	if len(r.recs) < r.size {
		if len(r.recs) == cap(r.recs) {
			r.recs = append(make([]Record, 0, min(r.size, max(64, 2*cap(r.recs)))), r.recs...)
		}
		r.recs = append(r.recs, rec)
	} else {
		r.recs[r.next] = rec
	}
	r.next++
	if r.next == r.size {
		r.next = 0
		r.full = true
	}
}

func (r *ring) snapshot() []Record {
	if !r.full {
		return append([]Record(nil), r.recs[:r.next]...)
	}
	out := make([]Record, 0, len(r.recs))
	out = append(out, r.recs[r.next:]...)
	return append(out, r.recs[:r.next]...)
}

// copyTable copies a stored cost table out with every infinite or
// undefined figure as -1, which JSON can carry.
func copyTable(rows []core.CostBreakdown) []core.CostBreakdown {
	if len(rows) == 0 {
		return nil
	}
	out := make([]core.CostBreakdown, len(rows))
	for i, cb := range rows {
		for _, v := range []*float64{&cb.Redirect, &cb.Data, &cb.CPU, &cb.Net, &cb.Total} {
			if math.IsInf(*v, 0) || math.IsNaN(*v) {
				*v = -1
			}
		}
		out[i] = cb
	}
	return out
}

// Recorder is the per-node black box. All methods are nil-safe so a
// server with the recorder disabled keeps calling the same code paths.
type Recorder struct {
	slow float64 // slow threshold in seconds, <=0: no slow routing

	mu           sync.Mutex
	seq          int64
	total        int64
	notableTotal int64
	recent       ring
	notable      ring
	// tables holds record seq's cost table at seq % TableDepth. Each slot
	// owns its table and Add rewrites it in place, so a steady stream
	// allocates nothing; the first table carves every slot's out of one
	// slab.
	tables [TableDepth][]core.CostBreakdown
}

// New builds a Recorder from cfg.
func New(cfg Config) *Recorder {
	if cfg.Cap <= 0 {
		cfg.Cap = DefaultCap
	}
	if cfg.NotableCap <= 0 {
		cfg.NotableCap = DefaultNotableCap
	}
	slow := cfg.SlowSeconds
	if slow == 0 {
		slow = DefaultSlowSeconds
	}
	return &Recorder{
		slow:    slow,
		recent:  newRing(cfg.Cap),
		notable: newRing(cfg.NotableCap),
	}
}

// Add classifies rec, assigns its sequence number, copies its cost table
// into the recorder's own, and appends it to the recent ring (and the
// notable ring when it erred or ran slow). Nil-safe: a disabled recorder
// drops the record.
func (r *Recorder) Add(rec Record) {
	if r == nil {
		return
	}
	switch {
	case rec.Status == 0 || rec.Status >= 400:
		rec.Notable = NotableError
	case r.slow > 0 && rec.TotalSeconds > r.slow:
		rec.Notable = NotableSlow
	}
	r.mu.Lock()
	r.seq++
	rec.Seq = r.seq
	t := &r.tables[r.seq%TableDepth]
	if n := len(rec.Candidates); n > 0 && cap(*t) == 0 {
		slab := make([]core.CostBreakdown, n*TableDepth)
		for i := range r.tables {
			r.tables[i] = slab[i*n : i*n : (i+1)*n]
		}
	}
	*t = append((*t)[:0], rec.Candidates...)
	rec.Candidates = nil
	r.total++
	r.recent.add(rec)
	if rec.Notable != "" {
		r.notableTotal++
		r.notable.add(rec)
	}
	r.mu.Unlock()
}

// Total reports how many records were ever added (0 on a nil recorder).
func (r *Recorder) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// NotableTotal reports how many records were routed to the notable ring.
func (r *Recorder) NotableTotal() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.notableTotal
}

// Dump is one node's full black-box state, shaped for the /sweb/flight
// endpoint and for snapshot bundles. Node and EpochUnix are filled by the
// caller, which knows its identity and clock.
type Dump struct {
	Enabled      bool     `json:"enabled"`
	Node         int      `json:"node"`
	EpochUnix    float64  `json:"epoch_unix,omitempty"`
	SlowSeconds  float64  `json:"slow_seconds"`
	Total        int64    `json:"total"`
	NotableTotal int64    `json:"notable_total"`
	Records      []Record `json:"records"`
	Notable      []Record `json:"notable"`
}

// Dump snapshots both rings. A nil recorder dumps Enabled: false.
func (r *Recorder) Dump() Dump {
	if r == nil {
		return Dump{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Dump{
		Enabled:      true,
		SlowSeconds:  r.slow,
		Total:        r.total,
		NotableTotal: r.notableTotal,
		Records:      r.withTables(r.recent.snapshot()),
		Notable:      r.withTables(r.notable.snapshot()),
	}
}

// withTables gives each of recs still within TableDepth of the newest
// record a copy of its cost table.
func (r *Recorder) withTables(recs []Record) []Record {
	for i := range recs {
		if seq := recs[i].Seq; seq > r.seq-TableDepth {
			recs[i].Candidates = copyTable(r.tables[seq%TableDepth])
		}
	}
	return recs
}
