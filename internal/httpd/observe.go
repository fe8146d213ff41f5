package httpd

import (
	"math"
	"runtime"
	"strconv"
	"sync"

	"sweb/internal/core"
	"sweb/internal/metrics"
	"sweb/internal/trace"
)

// Metric families every live node serves under /sweb/metrics. The event
// counter mirrors the trace.Kind vocabulary so the exposition and the
// trace renderers describe the lifecycle in the same words; the phase
// histograms are the live analogue of Table 5's per-phase costs; the
// sched_* families compare the broker's predicted t_s terms against what
// the node then measured.
const (
	mEvents         = "sweb_events_total"
	mPhase          = "sweb_phase_seconds"
	mResponse       = "sweb_response_seconds"
	mTTFB           = "sweb_ttfb_seconds"
	mDrops          = "sweb_drops_total"
	mRedirects      = "sweb_redirect_targets_total"
	mSchedPredicted = "sweb_sched_predicted_seconds_total"
	mSchedActual    = "sweb_sched_actual_seconds_total"
	mSchedCompared  = "sweb_sched_compared_total"
	mSchedAbsErr    = "sweb_sched_abs_error_seconds"
	// Gossip telemetry: the scheduler's decision inputs as observables.
	// Age is per-peer broadcast staleness right now; interval is the
	// distribution of gaps between receptions; advertised is the load
	// vector a peer last claimed; drift is |now - last advertised| for
	// this node's own numbers, the error peers act on between broadcasts.
	mGossipAge        = "sweb_loadd_broadcast_age_seconds"
	mGossipInterval   = "sweb_loadd_broadcast_interval_seconds"
	mGossipAdvertised = "sweb_loadd_advertised_load"
	mGossipDrift      = "sweb_loadd_self_drift"
	mTraceDropped     = "sweb_trace_dropped_total"
	// Hot-file cache counters, read live from the cache at exposition
	// time; the simulator publishes the same families from its page-cache
	// model, so hit-rate dashboards work on either substrate.
	mCacheHits      = "sweb_cache_hits_total"
	mCacheMisses    = "sweb_cache_misses_total"
	mCacheEvictions = "sweb_cache_evictions_total"
	mCacheShared    = "sweb_cache_singleflight_shared_total"
	mCacheBytes     = "sweb_cache_bytes"
	mCacheCapacity  = "sweb_cache_capacity_bytes"
	// Connection-plane state split by phase (sweb_inflight stays as the
	// conflated total the monitor's default rules read) plus the flight
	// recorder's own accounting.
	mConnsActive   = "sweb_conns_active"
	mConnsIdle     = "sweb_conns_idle"
	mIdleReaped    = "sweb_conns_idle_reaped_total"
	mKeepAlivePer  = "sweb_keepalive_requests_per_conn"
	mFlightRecords = "sweb_flight_records_total"
	mFlightNotable = "sweb_flight_notable_total"
	// Document-heat telemetry: the sketch's own accounting plus the
	// per-path request/relay counters the hot_doc monitor rule windows.
	// The simulator publishes the same families from its sketches.
	mHeatObservations = "sweb_heat_observations_total"
	mHeatTracked      = "sweb_heat_tracked_paths"
	mHeatRequests     = "sweb_heat_requests_total"
	mHeatRelays       = "sweb_heat_relays_total"
	// Replication telemetry: which replica internal fetches landed on
	// (the parity and chaos tests' failover evidence), the replica-set
	// size the hot_doc rule divides by, and the rebalancer's actions.
	mHeatReplicas = "sweb_heat_replicas"
	mReplicaFetch = "sweb_replica_fetch_total"
	mRebalance    = "sweb_rebalance_actions_total"
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

// nodeMetrics holds every handle the request path touches, resolved once
// here: fixed-label instances directly, single-label families (event
// kinds, phases, drop causes, redirect targets, document paths) as vector
// handles whose With is a map hit on the raw label value. The rule: the
// request path never passes a metrics.Labels literal to the registry.
// Series still appear in the exposition on first use, not at start-up.
type nodeMetrics struct {
	reg      *metrics.Registry
	response *metrics.Histogram
	ttfb     *metrics.Histogram
	compared *metrics.Counter
	absErr   *metrics.Histogram
	kaServed *metrics.Histogram

	events         *metrics.CounterVec   // {event}
	phases         *metrics.HistogramVec // {phase}
	drops          *metrics.CounterVec   // {cause}
	redirects      *metrics.CounterVec   // {target}
	schedPredicted *metrics.CounterVec   // {phase}
	schedActual    *metrics.CounterVec   // {phase}
	heatRequests   *metrics.CounterVec   // {path}
	heatRelays     *metrics.CounterVec   // {path}
	heatReplicas   *metrics.GaugeVec     // {path}
	replicaFetches *metrics.CounterVec2  // {path, source}
}

func newNodeMetrics(s *Server) *nodeMetrics {
	reg := metrics.NewRegistry()
	m := &nodeMetrics{
		reg: reg,
		response: reg.Histogram(mResponse,
			"end-to-end service time per successfully served request", nil, nil),
		ttfb: reg.Histogram(mTTFB,
			"request arrival to first response byte on the wire", nil, nil),
		compared: reg.Counter(mSchedCompared,
			"requests with both a finite prediction and a measured total", nil),
		absErr: reg.Histogram(mSchedAbsErr,
			"absolute error |predicted - actual| of the broker's t_s", nil, nil),
		kaServed: reg.Histogram(mKeepAlivePer,
			"requests served per client connection, observed at connection end",
			nil, keepAliveBuckets),

		events:    reg.CounterVec(mEvents, "request lifecycle events by trace kind", "event"),
		phases:    reg.HistogramVec(mPhase, "time spent per lifecycle phase", "phase", nil),
		drops:     reg.CounterVec(mDrops, "requests not served in full, by cause", "cause"),
		redirects: reg.CounterVec(mRedirects, "302s issued, by target node", "target"),
		schedPredicted: reg.CounterVec(mSchedPredicted,
			"sum of broker-predicted seconds by t_s phase", "phase"),
		schedActual: reg.CounterVec(mSchedActual,
			"sum of measured seconds by t_s phase", "phase"),
		heatRequests: reg.CounterVec(mHeatRequests, "served requests per document path", "path"),
		heatRelays: reg.CounterVec(mHeatRelays,
			"requests served by fetching the document from a replica", "path"),
		heatReplicas: reg.GaugeVec(mHeatReplicas,
			"replica-set size of the document at last serve", "path"),
		replicaFetches: reg.CounterVec2(mReplicaFetch,
			"internal document fetches by source replica node", "path", "source"),
	}
	reg.GaugeFunc("sweb_inflight", "client connections open now (idle keep-alive included)", nil,
		func() float64 { return float64(s.inflight.Load()) })
	reg.GaugeFunc(mConnsActive, "client connections with a request mid-lifecycle now", nil,
		func() float64 { a, _ := s.connCounts(); return float64(a) })
	reg.GaugeFunc(mConnsIdle, "client connections parked between requests now", nil,
		func() float64 { _, i := s.connCounts(); return float64(i) })
	reg.CounterFunc(mIdleReaped, "keep-alive connections closed by the idle timeout", nil,
		func() float64 { return float64(s.idleReaped.Load()) })
	reg.CounterFunc(mFlightRecords, "requests recorded by the flight recorder", nil,
		func() float64 { return float64(s.flight.Total()) })
	reg.CounterFunc(mFlightNotable, "flight records retained as notable (errors and slow requests)", nil,
		func() float64 { return float64(s.flight.NotableTotal()) })
	reg.GaugeFunc("sweb_requests_active", "requests mid-lifecycle now (the load signal)", nil,
		func() float64 { return float64(s.reqActive.Load()) })
	reg.GaugeFunc("sweb_capacity", "concurrent-connection ceiling (MAXLOAD analogue)", nil,
		func() float64 { return float64(s.cfg.MaxConcurrent) })
	reg.CounterFunc("sweb_upstream_dials_total", "internal-fetch connections dialed", nil,
		func() float64 { return float64(s.upstreamDials.Load()) })
	reg.CounterFunc("sweb_upstream_reused_total", "internal fetches served over a pooled connection", nil,
		func() float64 { return float64(s.upstreamReused.Load()) })
	// Server-process health next to the modelled load: a node can look
	// lightly loaded in SWEB terms while the Go runtime is drowning.
	reg.Gauge("sweb_build_info", "build metadata; value is always 1",
		metrics.Labels{"go_version": runtime.Version()}).Set(1)
	reg.GaugeFunc("sweb_goroutines", "live goroutines in the server process", nil,
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("sweb_heap_alloc_bytes", "bytes of allocated heap objects", nil,
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
	reg.GaugeFunc("sweb_disk_active", "in-progress local disk reads", nil,
		func() float64 { return float64(s.diskActive.Load()) })
	reg.GaugeFunc("sweb_net_active", "in-progress transfers and fetches", nil,
		func() float64 { return float64(s.netActive.Load()) })
	reg.CounterFunc("sweb_bytes_out_total", "response body bytes written", nil,
		func() float64 { return float64(s.bytesOut.Load()) })
	if c := s.cache; c != nil {
		reg.CounterFunc(mCacheHits, "hot-file cache lookups served from memory", nil,
			func() float64 { return float64(c.Stats().Hits) })
		reg.CounterFunc(mCacheMisses, "hot-file cache lookups that missed (absent or stale)", nil,
			func() float64 { return float64(c.Stats().Misses) })
		reg.CounterFunc(mCacheEvictions, "entries displaced by the LRU policy", nil,
			func() float64 { return float64(c.Stats().Evictions) })
		reg.CounterFunc(mCacheShared, "fills shared by coalesced concurrent misses", nil,
			func() float64 { return float64(c.Stats().SingleflightShared) })
		reg.GaugeFunc(mCacheBytes, "bytes resident in the hot-file cache", nil,
			func() float64 { return float64(c.Stats().UsedBytes) })
		reg.GaugeFunc(mCacheCapacity, "hot-file cache capacity", nil,
			func() float64 { return float64(c.Capacity()) })
	}
	reg.CounterFunc(mHeatObservations, "served requests folded into the document-heat sketch", nil,
		func() float64 { return float64(s.heat.Total()) })
	reg.GaugeFunc(mHeatTracked, "paths holding a document-heat sketch slot now", nil,
		func() float64 { return float64(s.heat.Tracked()) })
	if rec := s.cfg.Trace; rec.Enabled() {
		reg.CounterFunc(mTraceDropped, "trace events discarded at the capture limit", nil,
			func() float64 { return float64(rec.Dropped()) })
	}
	return m
}

// gossipGauges registers the live views of one peer's gossip state:
// staleness of its last broadcast and the load vector it advertised.
// Values are read from the loadd table at exposition time; a peer with no
// sample yet reads as -1 age and zero loads.
func (m *nodeMetrics) gossipGauges(s *Server, peer int) {
	lbl := metrics.Labels{"peer": strconv.Itoa(peer)}
	m.reg.GaugeFunc(mGossipAge, "seconds since the peer's last load broadcast (-1: none yet)",
		lbl, func() float64 { return s.table.Age(peer, s.nowSec()) })
	for _, facet := range []string{"cpu", "disk", "net"} {
		facet := facet
		flbl := metrics.Labels{"peer": strconv.Itoa(peer), "facet": facet}
		m.reg.GaugeFunc(mGossipAdvertised, "load the peer last advertised, by facet",
			flbl, func() float64 {
				smp, ok := s.table.Advertised(peer)
				if !ok {
					return 0
				}
				switch facet {
				case "cpu":
					return smp.CPULoad
				case "disk":
					return smp.DiskLoad
				default:
					return smp.NetLoad
				}
			})
	}
}

func (m *nodeMetrics) gossipInterval(peer int, seconds float64) {
	m.reg.Histogram(mGossipInterval, "gap between consecutive broadcasts received, by peer",
		metrics.Labels{"peer": strconv.Itoa(peer)}, gossipIntervalBuckets).Observe(seconds)
}

func (m *nodeMetrics) gossipDrift(facet string, delta float64) {
	if delta < 0 {
		delta = -delta
	}
	m.reg.Histogram(mGossipDrift, "|load now - load last advertised| at broadcast time, by facet",
		metrics.Labels{"facet": facet}, gossipDriftBuckets).Observe(delta)
}

func (m *nodeMetrics) event(kind trace.Kind) { m.events.With(string(kind)).Inc() }

func (m *nodeMetrics) phase(phase string, seconds float64) {
	m.phases.With(phase).Observe(seconds)
}

func (m *nodeMetrics) redirect(target int) { m.redirects.With(strconv.Itoa(target)).Inc() }

func (m *nodeMetrics) replicaFetch(path string, source int) {
	m.replicaFetches.With([2]string{path, strconv.Itoa(source)}).Inc()
}

func (m *nodeMetrics) rebalanceAction(action string) {
	m.reg.Counter(mRebalance, "replica-set mutations applied at this node, by action",
		metrics.Labels{"action": action}).Inc()
}

// keepAliveServed observes one connection's request count at its end.
func (m *nodeMetrics) keepAliveServed(n float64) {
	m.kaServed.Observe(n)
}

// prediction accumulates one predicted/actual pair for a t_s phase
// ("cpu", "data", "total"); the cluster report divides the two sums to
// get mean predicted vs mean actual per phase.
func (m *nodeMetrics) prediction(phase string, predicted, actual float64) {
	m.schedPredicted.With(phase).Add(predicted)
	m.schedActual.With(phase).Add(actual)
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

// recordPrediction feeds the predicted-vs-actual accumulators once a
// scheduled request finished cleanly on this node. With a full SWEB cost
// table the comparison is per phase (t_CPU vs parse+analyze, t_data+t_net
// vs fulfillment); policies that predict only a scalar (rr, cpu) compare
// totals — the report then shows exactly how blind they are, which is the
// paper's point.
func (s *Server) recordPrediction(dec core.Decision, a DecisionAudit) {
	var cb *core.CostBreakdown
	if id := s.cfg.ID; id < len(dec.Candidates) && !dec.Candidates[id].Infeasible {
		cb = &dec.Candidates[id]
	}
	switch {
	case cb != nil && !math.IsInf(cb.Total, 0):
		s.nm.prediction("cpu", cb.CPU, a.ParseSeconds+a.AnalyzeSeconds)
		s.nm.prediction("data", cb.Data+cb.Net, a.FulfillSeconds)
		s.nm.prediction("total", cb.Total, a.ActualSeconds)
		s.nm.compared.Inc()
		s.nm.absErr.Observe(math.Abs(cb.Total - a.ActualSeconds))
	case a.PredictedSeconds >= 0:
		s.nm.prediction("total", a.PredictedSeconds, a.ActualSeconds)
		s.nm.compared.Inc()
		s.nm.absErr.Observe(math.Abs(a.PredictedSeconds - a.ActualSeconds))
	}
}

// drop counts one dropped/degraded request both in the per-cause Stats
// map and the exposition counter.
func (s *Server) drop(cause string) {
	s.dropMu.Lock()
	s.dropCounts[cause]++
	s.dropMu.Unlock()
	s.nm.drops.With(cause).Inc()
}
