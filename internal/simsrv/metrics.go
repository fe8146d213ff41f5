package simsrv

import (
	"strconv"

	"sweb/internal/cache"
	"sweb/internal/core"
	"sweb/internal/des"
	"sweb/internal/flight"
	"sweb/internal/heat"
	"sweb/internal/metrics"
	"sweb/internal/nodeobs"
)

// newObserver builds node x's telemetry: the same sweb_* families, flight
// recorder and heat sketch a live node serves, so the monitor renders
// identical reports from either substrate. Everything here runs on the
// single simulation goroutine; timestamps are virtual seconds.
func newObserver(c *Cluster, x int) *nodeobs.Observer {
	node := c.nodes[x]
	ob := nodeobs.New(nodeobs.Config{
		Node:       x,
		Table:      c.tables[x],
		Now:        c.nowSec,
		Inflight:   func() float64 { return float64(c.inflight[x]) },
		Capacity:   func() float64 { return float64(c.cfg.Specs[x].AcceptQueue) },
		DiskActive: func() float64 { _, disk, _ := node.LoadVector(); return float64(disk) },
		NetActive:  func() float64 { _, _, nic := node.LoadVector(); return float64(nic) },
		BytesOut:   func() float64 { return float64(c.bytesOut[x]) },
		// The DES runs one request at a time, so misses never coalesce and
		// SingleflightShared stays 0.
		Cache: func() cache.Stats {
			h, m := node.Cache.Stats()
			return cache.Stats{Hits: h, Misses: m, Evictions: node.Cache.Evictions(),
				UsedBytes: node.Cache.Used(), CapacityBytes: node.Cache.Capacity()}
		},
	})
	for peer := range c.cfg.Specs {
		if peer != x {
			ob.Peer(peer)
		}
	}
	return ob
}

// observe records how rs ended at node: status and bytes as the client saw
// them. served marks requests that reached fulfillment: those carry the
// policy name and the serving node as the decision target, while refusals
// and drops record no placement (Target -1). A timeout is status 0 — the
// client gave up before the response was usable — exactly as a live node's
// failed response write is.
func (c *Cluster) observe(rs *request, node, status int, bytes int64, served bool) {
	now := c.Sim.Now()
	o := nodeobs.Outcome{Record: flight.Record{
		AtSeconds:      rs.issued.ToSeconds(),
		ConnID:         rs.id,
		Path:           rs.Path,
		Status:         status,
		Bytes:          bytes,
		Target:         -1,
		Redirected:     rs.Redirects > 0,
		CacheHit:       rs.fetch == core.FetchCache,
		ParseSeconds:   rs.ph.Preprocess,
		AnalyzeSeconds: rs.ph.Analysis,
		TTFBSeconds:    -1,
		TotalSeconds:   (now - rs.issued).ToSeconds(),
	}, DoneMicros: int64(now.ToSeconds() * 1e6)}
	if served {
		o.Policy, o.Target = c.policy.Name(), node
		if rs.plan.Action == core.Serve {
			o.Estimate = rs.plan.Decision.Estimate
		}
		o.Fulfil(rs.fetch, rs.Owner, len(rs.ReplicaSet()), true)
	}
	if rs.hasTTFB {
		o.TTFBSeconds = (rs.ttfbAt - rs.issued).ToSeconds()
	}
	if c.cfg.Trace.Enabled() && rs.tid >= 0 {
		o.TraceID = strconv.FormatInt(rs.tid, 10)
	}
	c.obs[node].Observe(o)
}

// Registry exposes node x's metrics registry — the simulator analogue of
// scraping /sweb/metrics, meant to feed a monitor.RegistrySource.
func (c *Cluster) Registry(x int) *metrics.Registry { return c.obs[x].Registry() }

// FlightDump snapshots node x's black box — the simulator analogue of
// scraping /sweb/flight. AtSeconds values are virtual seconds from sim
// start, so EpochUnix stays zero (the DES has no wall clock).
func (c *Cluster) FlightDump(x int) flight.Dump { return c.obs[x].FlightDump() }

// HeatDump snapshots node x's sketch — the simulator analogue of scraping
// /sweb/heat.
func (c *Cluster) HeatDump(x int) heat.Dump { return c.obs[x].HeatDump() }

// MergedHeat folds every node's sketch into the cluster-wide ranking —
// what a live deployment gets by scraping and merging /sweb/heat.
func (c *Cluster) MergedHeat() heat.Merged {
	dumps := make([]heat.Dump, c.Nodes())
	for i := range dumps {
		dumps[i] = c.HeatDump(i)
	}
	return heat.Merge(dumps)
}

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
