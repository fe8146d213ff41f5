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
// node then measured. Readers (monitor, slo, live reports) use these
// names, so renaming a family is a compile error, not an empty panel.
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
	// here because the monitor's node table reads them.
	Goroutines     = "sweb_goroutines"
	HeapAllocBytes = "sweb_heap_alloc_bytes"
)

// Phases are the sweb_phase_seconds cells, in lifecycle order.
// redirect_hop is the measured t_redirection: the time between a 302
// leaving one node and the redirected connection arriving at the target.
var Phases = []string{"parse", "analyze", "redirect", "redirect_hop", "fetch_local", "fetch_nfs", "cgi"}

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

	response, ttfb, absErr *metrics.Histogram
	compared               *metrics.Counter
	phases                 *metrics.HistogramVec // {phase}
	events                 *metrics.CounterVec   // {event}
	drops                  *metrics.CounterVec   // {cause}
	redirects              *metrics.CounterVec   // {target}
	schedPredicted         *metrics.CounterVec   // {phase}
	schedActual            *metrics.CounterVec   // {phase}
	rebalance              *metrics.CounterVec   // {action}
	replicaFetches         *metrics.CounterVec2  // {path, source}
}

// New builds node cfg.Node's observer on a fresh registry. Labelled
// series appear in the exposition on first use, not here.
func New(cfg Config) *Observer {
	reg := metrics.NewRegistry()
	ob := &Observer{
		node:   cfg.Node,
		reg:    reg,
		flight: flight.New(cfg.Flight),
		heat:   heat.New(cfg.Heat),
		table:  cfg.Table,
		now:    cfg.Now,

		response: reg.Histogram(Response,
			"end-to-end service time per successfully served request", nil, nil),
		ttfb: reg.Histogram(TTFB,
			"request arrival to first response byte on the wire", nil, nil),
		absErr: reg.Histogram(SchedAbsError,
			"absolute error |predicted - actual| of the broker's t_s", nil, nil),
		compared: reg.Counter(SchedCompared,
			"requests with both a finite prediction and a measured total", nil),

		phases:    reg.HistogramVec(Phase, "time spent per lifecycle phase", "phase", nil),
		events:    reg.CounterVec(Events, "request lifecycle events by trace kind", "event"),
		drops:     reg.CounterVec(Drops, "requests not served in full, by cause", "cause"),
		redirects: reg.CounterVec(RedirectTargets, "302s issued, by target node", "target"),
		schedPredicted: reg.CounterVec(SchedPredicted,
			"sum of broker-predicted seconds by t_s phase", "phase"),
		schedActual: reg.CounterVec(SchedActual, "sum of measured seconds by t_s phase", "phase"),
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

// Event counts one lifecycle event.
func (ob *Observer) Event(kind trace.Kind) { ob.events.With(string(kind)).Inc() }

// Phase observes the seconds one lifecycle phase took.
func (ob *Observer) Phase(phase string, seconds float64) { ob.phases.With(phase).Observe(seconds) }

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
// Notable are the recorder's to set, PredictedSeconds is derived from
// Estimate), plus what the other sinks need.
type Outcome struct {
	flight.Record
	// Estimate is the broker's t_s estimate; only a finite value > 0 is a
	// prediction, anything else records as -1.
	Estimate   float64
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
func FetchStep(f core.Fetch) (trace.Kind, string) {
	switch f {
	case core.FetchCGI:
		return trace.EvCGI, "cgi"
	case core.FetchPeer:
		return trace.EvFetchNFS, "fetch_nfs"
	}
	return trace.EvFetchLocal, "fetch_local"
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
	return append(events, kind, trace.EvSent), append(phases, cell)
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

// Observe records one finished request: its flight record and, for a
// success, the response and TTFB histograms (the trace id rides along as
// the bucket's exemplar, pivoting an SLO breach to this record) and the
// heat sketch, whose slots also serve the per-path counters and the
// replica-set gauge the monitor's hot_doc rule divides a path's share by.
func (ob *Observer) Observe(o Outcome) {
	rec := o.Record
	rec.Node, rec.PredictedSeconds = ob.node, -1
	if o.Estimate > 0 && !math.IsInf(o.Estimate, 1) {
		rec.PredictedSeconds = o.Estimate
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
// without candidates) compares totals, and one without a finite
// non-negative estimate compares nothing.
func (ob *Observer) Prediction(dec core.Decision, cpu, data, total float64) {
	est := dec.Estimate
	if id := ob.node; id < len(dec.Candidates) && !dec.Candidates[id].Infeasible &&
		!math.IsInf(dec.Candidates[id].Total, 0) {
		cb := dec.Candidates[id]
		ob.predict("cpu", cb.CPU, cpu)
		ob.predict("data", cb.Data+cb.Net, data)
		est = cb.Total
	} else if !(est >= 0) || math.IsInf(est, 0) {
		return
	}
	ob.predict("total", est, total)
	ob.compared.Inc()
	ob.absErr.Observe(math.Abs(est - total))
}

func (ob *Observer) predict(phase string, predicted, actual float64) {
	ob.schedPredicted.With(phase).Add(predicted)
	ob.schedActual.With(phase).Add(actual)
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
