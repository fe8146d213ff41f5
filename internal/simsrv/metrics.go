package simsrv

import (
	"math"
	"strconv"

	"sweb/internal/des"
	"sweb/internal/metrics"
	"sweb/internal/trace"
)

// simMetrics publishes one simulated node's state as the same sweb_*
// metric families a live node serves under /sweb/metrics, so the monitor
// renders identical reports from either substrate. The registry is read
// through RegistrySource inside the event loop — everything here runs on
// the single simulation goroutine, timestamps are virtual seconds.
type simMetrics struct {
	reg      *metrics.Registry
	response *metrics.Histogram
	ttfb     *metrics.Histogram
	compared *metrics.Counter
	absErr   *metrics.Histogram
	bytesOut int64
}

// Metric family names shared with the live exposition (see
// internal/httpd/observe.go for the vocabulary they mirror).
const (
	smEvents        = "sweb_events_total"
	smPhase         = "sweb_phase_seconds"
	smResponse      = "sweb_response_seconds"
	smTTFB          = "sweb_ttfb_seconds"
	smDrops         = "sweb_drops_total"
	smRedirects     = "sweb_redirect_targets_total"
	smSchedPred     = "sweb_sched_predicted_seconds_total"
	smSchedActual   = "sweb_sched_actual_seconds_total"
	smSchedCompared = "sweb_sched_compared_total"
	smSchedAbsErr   = "sweb_sched_abs_error_seconds"
	smGossipAge     = "sweb_loadd_broadcast_age_seconds"
	smGossipAdv     = "sweb_loadd_advertised_load"
	smReplicaFetch  = "sweb_replica_fetch_total"
	smRebalance     = "sweb_rebalance_actions_total"
)

func newSimMetrics(c *Cluster, x int) *simMetrics {
	reg := metrics.NewRegistry()
	m := &simMetrics{
		reg: reg,
		response: reg.Histogram(smResponse,
			"end-to-end service time per successfully served request", nil, nil),
		ttfb: reg.Histogram(smTTFB,
			"request arrival to first response chunk, virtual time", nil, nil),
		compared: reg.Counter(smSchedCompared,
			"requests with both a finite prediction and a measured total", nil),
		absErr: reg.Histogram(smSchedAbsErr,
			"absolute error |predicted - actual| of the broker's t_s", nil, nil),
	}
	reg.GaugeFunc("sweb_inflight", "connections being handled now", nil,
		func() float64 { return float64(c.inflight[x]) })
	reg.GaugeFunc("sweb_capacity", "accept capacity (process table + listen backlog)", nil,
		func() float64 { return float64(c.cfg.Specs[x].AcceptQueue) })
	reg.GaugeFunc("sweb_disk_active", "in-progress local disk reads", nil,
		func() float64 { _, disk, _ := c.nodes[x].LoadVector(); return float64(disk) })
	reg.GaugeFunc("sweb_net_active", "in-progress transfers and fetches", nil,
		func() float64 { _, _, nic := c.nodes[x].LoadVector(); return float64(nic) })
	reg.CounterFunc("sweb_bytes_out_total", "response body bytes written", nil,
		func() float64 { return float64(m.bytesOut) })
	// Flight-recorder accounting, same family names as the live node.
	reg.CounterFunc("sweb_flight_records_total", "requests recorded by the flight recorder", nil,
		func() float64 { return float64(c.fl[x].Total()) })
	reg.CounterFunc("sweb_flight_notable_total", "flight records retained as notable (errors and slow requests)", nil,
		func() float64 { return float64(c.fl[x].NotableTotal()) })
	// Document-heat accounting, same family names as the live node.
	reg.CounterFunc("sweb_heat_observations_total", "served requests folded into the document-heat sketch", nil,
		func() float64 { return float64(c.ht[x].Total()) })
	reg.GaugeFunc("sweb_heat_tracked_paths", "paths holding a document-heat sketch slot now", nil,
		func() float64 { return float64(c.ht[x].Tracked()) })
	// Page-cache families, mirroring the live sweb_cache_* exposition.
	// The DES runs one request at a time, so misses never coalesce and
	// singleflight_shared stays a constant 0 — published anyway to keep
	// the family set identical across substrates.
	reg.CounterFunc("sweb_cache_hits_total", "page-cache lookups served from memory", nil,
		func() float64 { h, _ := c.nodes[x].Cache.Stats(); return float64(h) })
	reg.CounterFunc("sweb_cache_misses_total", "page-cache lookups that missed", nil,
		func() float64 { _, mi := c.nodes[x].Cache.Stats(); return float64(mi) })
	reg.CounterFunc("sweb_cache_evictions_total", "entries displaced by the LRU policy", nil,
		func() float64 { return float64(c.nodes[x].Cache.Evictions()) })
	reg.CounterFunc("sweb_cache_singleflight_shared_total", "fills shared by coalesced concurrent misses", nil,
		func() float64 { return 0 })
	reg.GaugeFunc("sweb_cache_bytes", "bytes resident in the page cache", nil,
		func() float64 { return float64(c.nodes[x].Cache.Used()) })
	reg.GaugeFunc("sweb_cache_capacity_bytes", "page-cache capacity", nil,
		func() float64 { return float64(c.nodes[x].Cache.Capacity()) })
	for peer := range c.cfg.Specs {
		if peer == x {
			continue
		}
		peer := peer
		reg.GaugeFunc(smGossipAge, "seconds since the peer's last load broadcast (-1: none yet)",
			metrics.Labels{"peer": strconv.Itoa(peer)},
			func() float64 { return c.tables[x].Age(peer, c.nowSec()) })
		for _, facet := range []string{"cpu", "disk", "net"} {
			facet := facet
			reg.GaugeFunc(smGossipAdv, "load the peer last advertised, by facet",
				metrics.Labels{"peer": strconv.Itoa(peer), "facet": facet},
				func() float64 {
					smp, ok := c.tables[x].Advertised(peer)
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
	return m
}

func (m *simMetrics) event(kind trace.Kind) {
	m.reg.Counter(smEvents, "request lifecycle events by trace kind",
		metrics.Labels{"event": string(kind)}).Inc()
}

func (m *simMetrics) drop(cause string) {
	m.reg.Counter(smDrops, "requests not served in full, by cause",
		metrics.Labels{"cause": cause}).Inc()
}

func (m *simMetrics) phase(phase string, seconds float64) {
	m.reg.Histogram(smPhase, "time spent per lifecycle phase",
		metrics.Labels{"phase": phase}, nil).Observe(seconds)
}

func (m *simMetrics) replicaFetch(path string, source int) {
	m.reg.Counter(smReplicaFetch, "internal document fetches by source replica node",
		metrics.Labels{"path": path, "source": strconv.Itoa(source)}).Inc()
}

func (m *simMetrics) rebalanceAction(action string) {
	m.reg.Counter(smRebalance, "replica-set mutations applied at this node, by action",
		metrics.Labels{"action": action}).Inc()
}

func (m *simMetrics) redirect(target int) {
	m.reg.Counter(smRedirects, "302s issued, by target node",
		metrics.Labels{"target": strconv.Itoa(target)}).Inc()
}

// predictionTotal records one predicted-vs-actual t_s pair. The simulated
// broker exposes only its chosen target's total estimate, so the
// comparison is whole-t_s, phase="total" — the same cells a live node
// fills when its policy lacks a full cost table.
func (m *simMetrics) predictionTotal(predicted, actual float64) {
	if math.IsNaN(predicted) || math.IsInf(predicted, 0) || predicted < 0 {
		return
	}
	m.reg.Counter(smSchedPred, "sum of broker-predicted seconds by t_s phase",
		metrics.Labels{"phase": "total"}).Add(predicted)
	m.reg.Counter(smSchedActual, "sum of measured seconds by t_s phase",
		metrics.Labels{"phase": "total"}).Add(actual)
	m.compared.Inc()
	d := predicted - actual
	if d < 0 {
		d = -d
	}
	m.absErr.Observe(d)
}

// Registry exposes node x's metrics registry — the simulator analogue of
// scraping /sweb/metrics, meant to feed a monitor.RegistrySource.
func (c *Cluster) Registry(x int) *metrics.Registry { return c.nm[x].reg }

// NodeUp reports whether node x is in the resource pool — the simulated
// scrape-reachability signal.
func (c *Cluster) NodeUp(x int) bool { return c.up[x] }

// Every arms fn on the simulation clock each period until the run
// finalizes — the virtual-time cadence a monitor's Collect loop rides.
func (c *Cluster) Every(period des.Time, fn func()) {
	if period <= 0 {
		return
	}
	var arm func(at des.Time)
	arm = func(at des.Time) {
		c.Sim.At(at, func() {
			if c.stopped {
				return
			}
			fn()
			arm(c.Sim.Now() + period)
		})
	}
	arm(c.Sim.Now() + period)
}
