// Package nodeobs is the telemetry vocabulary both SWEB substrates speak
// and the completion observer both call. Every sweb_* family a simulated
// node and a live node publish is named, described and bucketed here
// once; New resolves them into handles on one node's registry, and
// Observe fans a finished request out to the flight recorder, the
// success-only latency histograms and the document-heat sketch. The
// simulator (internal/simsrv) and the live server (internal/httpd) feed
// the same handles and fill the same Outcome, each in its own units, so
// their expositions, flight records and heat dumps agree by construction
// rather than by a parity test. Families only a live node
// publishes (connections, keep-alive, upstream pool, Go runtime, gossip
// interval and drift, trace drops) stay declared in internal/httpd.
package nodeobs

import (
	"math"
	"strconv"
	"sync/atomic"

	"sweb/internal/cache"
	"sweb/internal/core"
	"sweb/internal/flight"
	"sweb/internal/heat"
	"sweb/internal/loadd"
	"sweb/internal/metrics"
	"sweb/internal/trace"
)

// Family names. The event counter mirrors the trace.Kind vocabulary, the
// phase histograms are the analogue of Table 5's per-phase costs, and the
// sched_* families compare the broker's predicted t_s terms with what the
// node then measured. Readers (slo, live reports, bench) use these names,
// so renaming a family is a compile error, not an empty report.
const (
	Events           = "sweb_events_total"
	Phase            = "sweb_phase_seconds"
	Response         = "sweb_response_seconds"
	TTFB             = "sweb_ttfb_seconds"
	Drops            = "sweb_drops_total"
	RedirectTargets  = "sweb_redirect_targets_total"
	SchedPredicted   = "sweb_sched_predicted_seconds_total"
	SchedActual      = "sweb_sched_actual_seconds_total"
	SchedCompared    = "sweb_sched_compared_total"
	SchedAbsError    = "sweb_sched_abs_error_seconds"
	GossipAge        = "sweb_loadd_broadcast_age_seconds"
	GossipAdvertised = "sweb_loadd_advertised_load"
	ReplicaFetch     = "sweb_replica_fetch_total"
	Rebalance        = "sweb_rebalance_actions_total"
	Inflight         = "sweb_inflight"
	Capacity         = "sweb_capacity"
	DiskActive       = "sweb_disk_active"
	NetActive        = "sweb_net_active"
	BytesOut         = "sweb_bytes_out_total"
	FlightRecords    = "sweb_flight_records_total"
	FlightNotable    = "sweb_flight_notable_total"
	HeatObservations = "sweb_heat_observations_total"
	HeatTracked      = "sweb_heat_tracked_paths"
	HeatRequests     = "sweb_heat_requests_total"
	HeatRelays       = "sweb_heat_relays_total"
	HeatReplicas     = "sweb_heat_replicas"
	CacheHits        = "sweb_cache_hits_total"
	CacheMisses      = "sweb_cache_misses_total"
	CacheEvictions   = "sweb_cache_evictions_total"
	CacheShared      = "sweb_cache_singleflight_shared_total"
	CacheBytes       = "sweb_cache_bytes"
	CacheCapacity    = "sweb_cache_capacity_bytes"

	// Published by the live node only (declared in internal/httpd); named
	// here with every other family.
	Goroutines     = "sweb_goroutines"
	HeapAllocBytes = "sweb_heap_alloc_bytes"
)

// Phases are the sweb_phase_seconds cells, in lifecycle order.
// redirect_hop is the measured t_redirection: the time between a 302
// leaving one node and the redirected connection arriving at the target.
var Phases = []string{"parse", "analyze", "redirect", "redirect_hop", "fetch_local", "fetch_nfs", "cgi"}

// Cell names one sweb_phase_seconds cell, Phases[c-1]; NoCell is a step
// that observes no phase.
type Cell uint8

const (
	NoCell Cell = iota
	CellParse
	CellAnalyze
	CellRedirect
	CellRedirectHop
	CellFetchLocal
	CellFetchNFS
	CellCGI
)

// String is the cell's phase label ("" for NoCell).
func (c Cell) String() string {
	if c == NoCell || int(c) > len(Phases) {
		return ""
	}
	return Phases[c-1]
}

// stepKinds are the sweb_events_total cells Step counts, the lifecycle
// kinds both substrates emit.
var stepKinds = []trace.Kind{trace.EvConnected, trace.EvRefused, trace.EvParsed, trace.EvAnalyzed,
	trace.EvRedirected, trace.EvForwarded, trace.EvFetchLocal, trace.EvFetchNFS, trace.EvCGI, trace.EvSent}

// eventIndex is kind's index in stepKinds, -1 for a kind outside them.
func eventIndex(kind trace.Kind) int {
	for i, k := range stepKinds {
		if k == kind {
			return i
		}
	}
	return -1
}

// schedPhases are the sweb_sched_*{phase} cells Prediction fills.
const (
	schedCPU = iota
	schedData
	schedTotal
)

var schedPhases = []string{"cpu", "data", "total"}

// handles is one closed-vocabulary family's series as a table indexed by
// a small enum. A handle resolves through its Vec the first time it is
// used, so a series still enters the exposition when it first fires,
// never at start-up; after that it is one atomic load, with no label
// lookup and no lock.
type handles[T any] struct {
	with  func(string) *T
	names []string
	h     []atomic.Pointer[T]
}

func newHandles[T any](with func(string) *T, names []string) *handles[T] {
	return &handles[T]{with: with, names: names, h: make([]atomic.Pointer[T], len(names))}
}

// at returns the series of names[i].
func (hs *handles[T]) at(i int) *T {
	if m := hs.h[i].Load(); m != nil {
		return m
	}
	// Racing first uses both resolve through the Vec, which dedups.
	m := hs.with(hs.names[i])
	hs.h[i].Store(m)
	return m
}

// Config is one node's identity, sinks and readings. The reading funcs
// are evaluated at scrape time and must be safe to call from the
// scraping goroutine.
type Config struct {
	Node   int
	Flight flight.Config
	Heat   heat.Config
	// Table and Now (the node's clock, in Table's seconds) back the
	// per-peer gossip gauges Peer registers.
	Table *loadd.Table
	Now   func() float64

	Inflight, Capacity, DiskActive, NetActive, BytesOut func() float64
	// Cache reads the node's cache counters; nil when the node runs
	// without one, which leaves the sweb_cache_* families out.
	Cache func() cache.Stats
	// Trace is the node's trace recorder, which Step appends each step's
	// event to; nil or off records nothing.
	Trace *trace.Recorder
}

// Observer is one node's telemetry: its registry with every shared family
// resolved, its flight recorder and its heat sketch. Safe for concurrent
// use; the request path passes no metrics.Labels literal to the registry.
type Observer struct {
	node   int
	reg    *metrics.Registry
	flight *flight.Recorder
	heat   *heat.Sketch
	table  *loadd.Table
	now    func() float64
	rec    *trace.Recorder

	response, ttfb, absErr *metrics.Histogram
	compared               *metrics.Counter
	// The closed-vocabulary families a request touches, by enum: phases
	// by Cell-1, events by eventIndex, the sched pair by sched*.
	phases                      *handles[metrics.Histogram] // {phase}
	events                      *handles[metrics.Counter]   // {event}
	schedPredicted, schedActual *handles[metrics.Counter]   // {phase}
	eventVec                    *metrics.CounterVec         // {event}, for a kind outside stepKinds
	drops                       *metrics.CounterVec         // {cause}
	redirects                   *metrics.CounterVec         // {target}
	rebalance                   *metrics.CounterVec         // {action}
	replicaFetches              *metrics.CounterVec2        // {path, source}
}

// New builds node cfg.Node's observer on a fresh registry, with the
// per-request families' handle tables. Labelled series appear in the
// exposition on first use, not here.
func New(cfg Config) *Observer {
	reg := metrics.NewRegistry()
	phases := reg.HistogramVec(Phase, "time spent per lifecycle phase", "phase", nil)
	events := reg.CounterVec(Events, "request lifecycle events by trace kind", "event")
	kinds := make([]string, len(stepKinds))
	for i, k := range stepKinds {
		kinds[i] = string(k)
	}
	ob := &Observer{
		node:   cfg.Node,
		reg:    reg,
		flight: flight.New(cfg.Flight),
		heat:   heat.New(cfg.Heat),
		table:  cfg.Table,
		now:    cfg.Now,
		rec:    cfg.Trace,

		response: reg.Histogram(Response,
			"end-to-end service time per successfully served request", nil, nil),
		ttfb: reg.Histogram(TTFB,
			"request arrival to the first response chunk handed to the client", nil, nil),
		absErr: reg.Histogram(SchedAbsError,
			"absolute error |predicted - actual| of the broker's t_s", nil, nil),
		compared: reg.Counter(SchedCompared,
			"requests with both a finite prediction and a measured total", nil),

		phases:   newHandles(phases.With, Phases),
		events:   newHandles(events.With, kinds),
		eventVec: events,
		schedPredicted: newHandles(reg.CounterVec(SchedPredicted,
			"sum of broker-predicted seconds by t_s phase", "phase").With, schedPhases),
		schedActual: newHandles(reg.CounterVec(SchedActual,
			"sum of measured seconds by t_s phase", "phase").With, schedPhases),
		drops:     reg.CounterVec(Drops, "requests not served in full, by cause", "cause"),
		redirects: reg.CounterVec(RedirectTargets, "302s issued, by target node", "target"),
		rebalance: reg.CounterVec(Rebalance,
			"replica-set mutations applied at this node, by action", "action"),
		replicaFetches: reg.CounterVec2(ReplicaFetch,
			"internal document fetches by source replica node", "path", "source"),
	}
	reg.GaugeFunc(Inflight, "client connections open now (idle keep-alive included)", nil, cfg.Inflight)
	reg.GaugeFunc(Capacity, "concurrent-connection ceiling (MAXLOAD analogue)", nil, cfg.Capacity)
	reg.GaugeFunc(DiskActive, "in-progress local disk reads", nil, cfg.DiskActive)
	reg.GaugeFunc(NetActive, "in-progress transfers and fetches", nil, cfg.NetActive)
	reg.CounterFunc(BytesOut, "response body bytes written", nil, cfg.BytesOut)
	reg.CounterFunc(FlightRecords, "requests recorded by the flight recorder", nil,
		func() float64 { return float64(ob.flight.Total()) })
	reg.CounterFunc(FlightNotable, "flight records retained as notable (errors and slow requests)", nil,
		func() float64 { return float64(ob.flight.NotableTotal()) })
	reg.CounterFunc(HeatObservations, "served requests folded into the document-heat sketch", nil,
		func() float64 { return float64(ob.heat.Total()) })
	reg.GaugeFunc(HeatTracked, "paths holding a document-heat sketch slot now", nil,
		func() float64 { return float64(ob.heat.Tracked()) })
	// The per-path families are read from the sketch's slots at scrape
	// time: one series per tracked path, so at most K per node, counting
	// from the path's admission. An evicted path's series disappears, and
	// a re-admitted one restarts from 1 (a counter reset to its readers).
	// A path's relay series appears with its first relay, as a counter
	// created on first use would.
	ob.heatSeries(HeatRequests, "counter",
		"served requests per tracked document path, exact since the path last took a heat-sketch slot",
		func(e *heat.Entry, _ int) (float64, bool) { return float64(e.Count - e.ErrBound), true })
	ob.heatSeries(HeatRelays, "counter",
		"requests per tracked document path served by fetching it from a replica, since the path last took a heat-sketch slot",
		func(e *heat.Entry, _ int) (float64, bool) { return float64(e.Relays), e.Relays > 0 })
	ob.heatSeries(HeatReplicas, "gauge",
		"replica-set size of each tracked document path at its last serve",
		func(_ *heat.Entry, replicas int) (float64, bool) { return float64(replicas), true })
	if st := cfg.Cache; st != nil {
		reg.CounterFunc(CacheHits, "hot-file cache lookups served from memory", nil,
			func() float64 { return float64(st().Hits) })
		reg.CounterFunc(CacheMisses, "hot-file cache lookups that missed (absent or stale)", nil,
			func() float64 { return float64(st().Misses) })
		reg.CounterFunc(CacheEvictions, "entries displaced by the LRU policy", nil,
			func() float64 { return float64(st().Evictions) })
		reg.CounterFunc(CacheShared, "fills shared by coalesced concurrent misses", nil,
			func() float64 { return float64(st().SingleflightShared) })
		reg.GaugeFunc(CacheBytes, "bytes resident in the hot-file cache", nil,
			func() float64 { return float64(st().UsedBytes) })
		reg.GaugeFunc(CacheCapacity, "hot-file cache capacity", nil,
			func() float64 { return float64(st().CapacityBytes) })
	}
	return ob
}

// heatSeries registers the per-path family name, of type typ, as a
// collector over the heat sketch's tracked slots: each slot for which
// value reports ok is one series.
func (ob *Observer) heatSeries(name, typ, help string, value func(e *heat.Entry, replicas int) (float64, bool)) {
	ob.reg.Collector(name, help, typ, "path", func(emit func(string, float64)) {
		ob.heat.Each(func(e *heat.Entry, replicas int) {
			if v, ok := value(e, replicas); ok {
				emit(e.Path, v)
			}
		})
	})
}

// Peer registers the gauges over one peer's gossip state: staleness of
// its last broadcast and the load vector it advertised, read from the
// node's table at scrape time (-1 age and zero loads before its first
// sample). The registry dedups, so re-registering a peer is harmless.
func (ob *Observer) Peer(peer int) {
	id := strconv.Itoa(peer)
	ob.reg.GaugeFunc(GossipAge, "seconds since the peer's last load broadcast (-1: none yet)",
		metrics.Labels{"peer": id}, func() float64 { return ob.table.Age(peer, ob.now()) })
	for _, facet := range []string{"cpu", "disk", "net"} {
		ob.reg.GaugeFunc(GossipAdvertised, "load the peer last advertised, by facet",
			metrics.Labels{"peer": id, "facet": facet}, func() float64 {
				smp, ok := ob.table.Advertised(peer)
				switch {
				case !ok:
					return 0
				case facet == "cpu":
					return smp.CPULoad
				case facet == "disk":
					return smp.DiskLoad
				default:
					return smp.NetLoad
				}
			})
	}
}

// Registry is the node's metric registry — what /sweb/metrics serves.
func (ob *Observer) Registry() *metrics.Registry { return ob.reg }

// Step records one lifecycle step of request tid at instant at (the
// recorder's seconds): it counts kind, observes seconds in the phase cell
// when cell is not NoCell, and appends kind's trace event, with d
// rendered as its detail, when the recorder is on and tid is not
// negative. A step whose kind is "" only took time: it counts and traces
// nothing.
func (ob *Observer) Step(tid int64, at float64, kind trace.Kind, cell Cell, seconds float64, d Detail) {
	if kind != "" {
		if i := eventIndex(kind); i >= 0 {
			ob.events.at(i).Inc()
		} else {
			ob.eventVec.With(string(kind)).Inc()
		}
		ob.Trace(tid, at, kind, d)
	}
	if cell != NoCell {
		ob.phases.at(int(cell) - 1).Observe(seconds)
	}
}

// Trace appends a step's trace event and counts nothing: for an internal
// fetch that joins a peer's request, and for a step traced at one instant
// and counted by a later Step with a negative tid.
func (ob *Observer) Trace(tid int64, at float64, kind trace.Kind, d Detail) {
	if ob.rec.Enabled() && tid >= 0 {
		ob.rec.Record(tid, at, kind, ob.node, d.String())
	}
}

// Detail is a trace event's detail, rendered only when an event is
// recorded, so an untraced step formats and allocates nothing for it: a
// text, or a key with an int or a string value. The zero Detail is "".
type Detail struct {
	key, text string
	n         int
	isInt     bool
}

// Text is the detail s.
func Text(s string) Detail { return Detail{text: s} }

// Int is the detail key=n.
func Int(key string, n int) Detail { return Detail{key: key, n: n, isInt: true} }

// Str is the detail key=v.
func Str(key, v string) Detail { return Detail{key: key, text: v} }

// String renders d.
func (d Detail) String() string {
	switch {
	case d.key == "":
		return d.text
	case d.isInt:
		return d.key + "=" + strconv.Itoa(d.n)
	}
	return d.key + "=" + d.text
}

// Drop counts one request not served in full.
func (ob *Observer) Drop(cause string) { ob.drops.With(cause).Inc() }

// Redirect counts one 302 to target.
func (ob *Observer) Redirect(target int) { ob.redirects.With(strconv.Itoa(target)).Inc() }

// ReplicaFetch counts one internal fetch of path served by source.
func (ob *Observer) ReplicaFetch(path string, source int) {
	ob.replicaFetches.With([2]string{path, strconv.Itoa(source)}).Inc()
}

// RebalanceAction counts one replica-set mutation applied at this node.
func (ob *Observer) RebalanceAction(action string) { ob.rebalance.With(action).Inc() }

// Outcome is one finished request as the node that answered it saw it:
// its flight record, filled in the substrate's own units (Seq, Node and
// Notable are the recorder's to set; PredictedSeconds and Candidates come
// from Decision, and FulfillSeconds counts only when Fulfilled), plus what
// the other sinks need.
type Outcome struct {
	flight.Record
	// Decision is the broker's decision; zero when no policy ran.
	Decision   core.Decision
	DoneMicros int64 // completion instant, the exemplars' timestamp

	// Fulfilled marks a request that reached fulfillment on this node;
	// with a 200 or 304 it is a success (see Succeeded).
	Fulfilled bool
	// Heat inputs: the document's owner (-1 for generated output), whether
	// its bytes came from another replica or missed the cache, and its
	// replica-set size at serve time.
	Owner       int
	Relay, Miss bool
	Replicas    int
}

// FetchStep names the lifecycle event and the sweb_phase_seconds cell of a
// fulfillment the spine classified as f: a program run is cgi, a peer
// fetch is the NFS path, and a disk read or cache hit is local.
func FetchStep(f core.Fetch) (trace.Kind, Cell) {
	switch f {
	case core.FetchCGI:
		return trace.EvCGI, CellCGI
	case core.FetchPeer:
		return trace.EvFetchNFS, CellFetchNFS
	}
	return trace.EvFetchLocal, CellFetchLocal
}

// Steps lists the events and phase cells a client request emits on the
// node that analyzed it, in order, for the spine's action and — when it is
// served there — fetch kind. Every request is parsed and analyzed; a 302
// adds the redirect, a 404 its answer, and a serve its fetch and answer.
// It is the contract each substrate's executor is tested against.
func Steps(a core.Action, f core.Fetch) (events []trace.Kind, phases []string) {
	events = []trace.Kind{trace.EvConnected, trace.EvParsed, trace.EvAnalyzed}
	phases = []string{"parse", "analyze"}
	switch a {
	case core.Redirect:
		return append(events, trace.EvRedirected), append(phases, "redirect")
	case core.NotFound:
		return append(events, trace.EvSent), phases
	}
	kind, cell := FetchStep(f)
	return append(events, kind, trace.EvSent), append(phases, cell.String())
}

// Fulfil marks o as fulfilled on this node by a fetch of kind f and fills
// the heat inputs from it: owner (dropped for generated output) and the
// replica-set size come from the document; a relay is a peer fetch, and a
// miss is any read from a disk, which only a node with a cache can count.
func (o *Outcome) Fulfil(f core.Fetch, owner, replicas int, cache bool) {
	if f == core.FetchCGI {
		owner = -1
	}
	o.Fulfilled, o.Owner, o.Replicas = true, owner, replicas
	o.CacheHit, o.Relay = f == core.FetchCache, f == core.FetchPeer
	o.Miss = cache && (f == core.FetchDisk || f == core.FetchPeer)
}

// Succeeded reports whether o is a successful serve: the only requests
// the latency histograms and the heat sketch count. Every other ending
// pairs with a sweb_drops_total cause (or is a 302), so the SLO engine
// reads successes and errors with no overlap.
func (o *Outcome) Succeeded() bool {
	return o.Fulfilled && (o.Status == 200 || o.Status == 304)
}

// Observe records one finished request: its flight record, with the
// decision's prediction and cost table, and, for a success, the response
// and TTFB histograms (the trace id rides along as the bucket's exemplar,
// pivoting an SLO breach to this record) and the heat sketch, whose slots
// also serve the per-path counters and the replica-set gauge.
func (ob *Observer) Observe(o Outcome) {
	rec := o.Record
	rec.Node, rec.PredictedSeconds, rec.Candidates = ob.node, o.Decision.Predicted(), o.Decision.Candidates
	if !o.Fulfilled {
		rec.FulfillSeconds = -1
	}
	ob.flight.Add(rec)
	if !o.Succeeded() {
		return
	}
	ob.response.ObserveExemplar(o.TotalSeconds, o.TraceID, o.DoneMicros)
	if o.TTFBSeconds >= 0 {
		ob.ttfb.ObserveExemplar(o.TTFBSeconds, o.TraceID, o.DoneMicros)
	}
	ob.heat.Observe(heat.Observation{Path: o.Path, Owner: o.Owner, Bytes: o.Bytes,
		Relay: o.Relay, Miss: o.Miss, Seconds: o.TotalSeconds, Replicas: o.Replicas})
}

// Prediction compares the broker's decision with the seconds this node
// measured serving it: cpu is parse + analyze, data the fulfillment, total
// the whole t_s. With a feasible cost row for this node the comparison is
// per t_s phase; a policy that predicts only a scalar (or a decision
// without candidates) compares totals, and a decision that predicted
// nothing (core.Decision.Predicted) compares nothing.
func (ob *Observer) Prediction(dec core.Decision, cpu, data, total float64) {
	est := dec.Predicted()
	if id := ob.node; id < len(dec.Candidates) && !dec.Candidates[id].Infeasible &&
		!math.IsInf(dec.Candidates[id].Total, 0) {
		cb := dec.Candidates[id]
		ob.predict(schedCPU, cb.CPU, cpu)
		ob.predict(schedData, cb.Data+cb.Net, data)
		est = cb.Total
	} else if est < 0 {
		return
	}
	ob.predict(schedTotal, est, total)
	ob.compared.Inc()
	ob.absErr.Observe(math.Abs(est - total))
}

func (ob *Observer) predict(phase int, predicted, actual float64) {
	ob.schedPredicted.at(phase).Add(predicted)
	ob.schedActual.at(phase).Add(actual)
}

// FlightDump snapshots the flight rings with the node filled in; the
// caller adds its epoch, when it has a wall clock.
func (ob *Observer) FlightDump() flight.Dump {
	d := ob.flight.Dump()
	d.Node = ob.node
	return d
}

// HeatDump snapshots the heat sketch with the node filled in.
func (ob *Observer) HeatDump() heat.Dump {
	d := ob.heat.Dump()
	d.Node = ob.node
	return d
}

// Hot returns the n hottest paths by the heat sketch, hottest first.
func (ob *Observer) Hot(n int) []string { return ob.heat.Hot(n) }
