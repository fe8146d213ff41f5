package simsrv

import (
	"sweb/internal/heat"
	"sweb/internal/metrics"
)

// HeatDump snapshots node x's sketch — the simulator analogue of
// scraping /sweb/heat. Both substrates fill the same Dump schema; the
// parity test in internal/heat holds them to it.
func (c *Cluster) HeatDump(x int) heat.Dump {
	d := c.ht[x].Dump()
	d.Node = x
	return d
}

// MergedHeat folds every node's sketch into the cluster-wide ranking —
// what a live deployment gets by scraping and merging /sweb/heat.
func (c *Cluster) MergedHeat() heat.Merged {
	dumps := make([]heat.Dump, c.Nodes())
	for i := range dumps {
		dumps[i] = c.HeatDump(i)
	}
	return heat.Merge(dumps)
}

// heatObserve folds one fulfilled serve into the serving node's sketch
// and bumps the per-path counters, mirroring the live node's funnel.
func (c *Cluster) heatObserve(rs *request, resp float64) {
	cgi := rs.fetchPhase == "cgi"
	owner := -1
	if !cgi {
		owner = rs.file.Owner
	}
	c.ht[rs.servedBy].Observe(heat.Observation{
		Path:    rs.path,
		Owner:   owner,
		Bytes:   rs.file.Size,
		Relay:   rs.fetchPhase == "fetch_nfs",
		Miss:    !cgi && !rs.cacheHit,
		Seconds: resp,
	})
	reg := c.nm[rs.servedBy].reg
	reg.Counter("sweb_heat_requests_total", "served requests per document path",
		metrics.Labels{"path": rs.path}).Inc()
	if rs.fetchPhase == "fetch_nfs" {
		reg.Counter("sweb_heat_relays_total", "requests served by fetching the document from a replica",
			metrics.Labels{"path": rs.path}).Inc()
	}
	// Replica-set size at serve time: the hot_doc rule divides a path's
	// request share by this gauge, so replication — not only load decay —
	// clears the alert.
	reg.Gauge("sweb_heat_replicas", "replica-set size of the document at last serve",
		metrics.Labels{"path": rs.path}).Set(float64(len(rs.file.ReplicaSet())))
}
