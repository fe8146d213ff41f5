package httpd

import (
	"math"
	"runtime"
	"strconv"
	"sync"

	"sweb/internal/core"
	"sweb/internal/flight"
	"sweb/internal/heat"
	"sweb/internal/metrics"
	"sweb/internal/nodeobs"
)

// Families only a live node publishes; the ones it shares with the
// simulator are declared in internal/nodeobs. Gossip interval is the
// distribution of gaps between receptions per peer; drift is |now - last
// advertised| for this node's own numbers, the error peers act on between
// broadcasts.
const (
	mGossipInterval = "sweb_loadd_broadcast_interval_seconds"
	mGossipDrift    = "sweb_loadd_self_drift"
	mKeepAlivePer   = "sweb_keepalive_requests_per_conn"
)

// keepAliveBuckets cover one-shot connections through a fully amortized
// KeepAliveMax=100 and beyond.
var keepAliveBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250}

// gossipIntervalBuckets cover a healthy 2-3 s gossip period up through the
// 8 s default timeout and well past it, so a dying peer's growing gaps are
// visible in the histogram, not just clipped into +Inf.
var gossipIntervalBuckets = []float64{0.5, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64}

// gossipDriftBuckets are in load units (runnable jobs / active transfers),
// not seconds.
var gossipDriftBuckets = []float64{0.5, 1, 2, 4, 8, 16, 32, 64}

// newObserver builds the node's telemetry: the shared families over this
// node's readings, then the live-only families on the same registry. It
// returns the keep-alive histogram, the one live-only handle the request
// path touches.
func newObserver(s *Server) (*nodeobs.Observer, *metrics.Histogram) {
	cfg := nodeobs.Config{
		Node:       s.cfg.ID,
		Flight:     flight.Config{Cap: s.cfg.FlightRing, NotableCap: s.cfg.FlightNotable},
		Heat:       heat.Config{K: s.cfg.HeatK},
		Table:      s.table,
		Now:        s.nowSec,
		Inflight:   func() float64 { return float64(s.inflight.Load()) },
		Capacity:   func() float64 { return float64(s.cfg.MaxConcurrent) },
		DiskActive: func() float64 { return float64(s.diskActive.Load()) },
		NetActive:  func() float64 { return float64(s.netActive.Load()) },
		BytesOut:   func() float64 { return float64(s.bytesOut.Load()) },
	}
	switch {
	case s.cfg.SlowThreshold < 0:
		cfg.Flight.SlowSeconds = -1
	case s.cfg.SlowThreshold > 0:
		cfg.Flight.SlowSeconds = s.cfg.SlowThreshold.Seconds()
	}
	if s.cache != nil {
		cfg.Cache = s.cache.Stats
	}
	ob := nodeobs.New(cfg)
	reg := ob.Registry()
	reg.GaugeFunc("sweb_conns_active", "client connections with a request mid-lifecycle now", nil,
		func() float64 { a, _ := s.connCounts(); return float64(a) })
	reg.GaugeFunc("sweb_conns_idle", "client connections parked between requests now", nil,
		func() float64 { _, i := s.connCounts(); return float64(i) })
	reg.CounterFunc("sweb_conns_idle_reaped_total", "keep-alive connections closed by the idle timeout", nil,
		func() float64 { return float64(s.idleReaped.Load()) })
	reg.GaugeFunc("sweb_requests_active", "requests mid-lifecycle now (the load signal)", nil,
		func() float64 { return float64(s.reqActive.Load()) })
	reg.CounterFunc("sweb_upstream_dials_total", "internal-fetch connections dialed", nil,
		func() float64 { return float64(s.upstreamDials.Load()) })
	reg.CounterFunc("sweb_upstream_reused_total", "internal fetches served over a pooled connection", nil,
		func() float64 { return float64(s.upstreamReused.Load()) })
	// Server-process health next to the modelled load: a node can look
	// lightly loaded in SWEB terms while the Go runtime is drowning.
	reg.Gauge("sweb_build_info", "build metadata; value is always 1",
		metrics.Labels{"go_version": runtime.Version()}).Set(1)
	reg.GaugeFunc(nodeobs.Goroutines, "live goroutines in the server process", nil,
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc(nodeobs.HeapAllocBytes, "bytes of allocated heap objects", nil,
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	reg.CounterFunc("sweb_gc_pause_seconds_total", "cumulative GC stop-the-world pause time", nil,
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.PauseTotalNs) / 1e9
		})
	if rec := s.cfg.Trace; rec.Enabled() {
		reg.CounterFunc("sweb_trace_dropped_total", "trace events discarded at the capture limit", nil,
			func() float64 { return float64(rec.Dropped()) })
	}
	return ob, reg.Histogram(mKeepAlivePer,
		"requests served per client connection, observed at connection end", nil, keepAliveBuckets)
}

func (s *Server) gossipInterval(peer int, seconds float64) {
	s.obs.Registry().Histogram(mGossipInterval, "gap between consecutive broadcasts received, by peer",
		metrics.Labels{"peer": strconv.Itoa(peer)}, gossipIntervalBuckets).Observe(seconds)
}

func (s *Server) gossipDrift(facet string, delta float64) {
	s.obs.Registry().Histogram(mGossipDrift, "|load now - load last advertised| at broadcast time, by facet",
		metrics.Labels{"facet": facet}, gossipDriftBuckets).Observe(math.Abs(delta))
}

// AuditCandidate is one row of a recorded decision's cost table — a
// core.CostBreakdown with its +Inf sentinel replaced by -1 so the audit
// survives encoding/json (which rejects infinities).
type AuditCandidate struct {
	Node            int     `json:"node"`
	SourceNode      int     `json:"source_node"` // replica the data term priced
	RedirectSeconds float64 `json:"redirect_seconds"`
	DataSeconds     float64 `json:"data_seconds"`
	CPUSeconds      float64 `json:"cpu_seconds"`
	NetSeconds      float64 `json:"net_seconds"`
	TotalSeconds    float64 `json:"total_seconds"` // -1 when infeasible
	Infeasible      bool    `json:"infeasible"`
}

// DecisionAudit records one scheduling decision next to the timings the
// node then measured — the per-request audit trail behind /sweb/status.
// ActualSeconds is -1 for redirected requests (fulfilled elsewhere).
type DecisionAudit struct {
	Seq              int64            `json:"seq"`
	AtSeconds        float64          `json:"at_seconds"`
	Path             string           `json:"path"`
	Policy           string           `json:"policy"`
	Target           int              `json:"target"`
	Redirected       bool             `json:"redirected"`
	PredictedSeconds float64          `json:"predicted_seconds"` // -1 without a finite estimate
	ActualSeconds    float64          `json:"actual_seconds"`
	ParseSeconds     float64          `json:"parse_seconds"`
	AnalyzeSeconds   float64          `json:"analyze_seconds"`
	FulfillSeconds   float64          `json:"fulfill_seconds"`
	Candidates       []AuditCandidate `json:"candidates,omitempty"`
}

func sanitizeSeconds(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return -1
	}
	return v
}

// appendCandidates appends the sanitized cost table to dst.
func appendCandidates(dst []AuditCandidate, cands []core.CostBreakdown) []AuditCandidate {
	for _, cb := range cands {
		dst = append(dst, AuditCandidate{
			Node:            cb.Node,
			SourceNode:      cb.Source,
			RedirectSeconds: sanitizeSeconds(cb.Redirect),
			DataSeconds:     sanitizeSeconds(cb.Data),
			CPUSeconds:      sanitizeSeconds(cb.CPU),
			NetSeconds:      sanitizeSeconds(cb.Net),
			TotalSeconds:    sanitizeSeconds(cb.Total),
			Infeasible:      cb.Infeasible,
		})
	}
	return dst
}

// auditCap bounds the decision audit: enough recent decisions to diagnose
// a placement anomaly without letting a long run grow the status payload.
const auditCap = 128

// auditLog is a fixed-size ring of the most recent decisions. Each slot
// owns its candidate table: add rewrites the slot's table in place, so a
// steady request stream allocates nothing here, and snapshot copies the
// tables out.
type auditLog struct {
	mu   sync.Mutex
	seq  int64
	ring []DecisionAudit
	next int
	full bool
}

func newAuditLog(n int) *auditLog {
	return &auditLog{ring: make([]DecisionAudit, n)}
}

// add records d with the decision's cost table (d.Candidates is ignored).
func (a *auditLog) add(d DecisionAudit, cands []core.CostBreakdown) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seq++
	d.Seq = a.seq
	d.Candidates = appendCandidates(a.ring[a.next].Candidates[:0], cands)
	a.ring[a.next] = d
	a.next++
	if a.next == len(a.ring) {
		a.next = 0
		a.full = true
	}
}

// snapshot returns the retained decisions, oldest first.
func (a *auditLog) snapshot() []DecisionAudit {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []DecisionAudit
	if a.full {
		out = append(out, a.ring[a.next:]...)
	}
	out = append(out, a.ring[:a.next]...)
	for i := range out {
		out[i].Candidates = append([]AuditCandidate(nil), out[i].Candidates...)
	}
	return out
}

// drop counts one dropped/degraded request both in the per-cause Stats
// map and the exposition counter.
func (s *Server) drop(cause string) {
	s.dropMu.Lock()
	s.dropCounts[cause]++
	s.dropMu.Unlock()
	s.obs.Drop(cause)
}
