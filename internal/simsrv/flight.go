package simsrv

import (
	"strconv"

	"sweb/internal/flight"
)

// FlightDump snapshots node x's black box — the simulator analogue of
// scraping /sweb/flight. AtSeconds values are virtual seconds from sim
// start, so EpochUnix stays zero (the DES has no wall clock).
func (c *Cluster) FlightDump(x int) flight.Dump {
	d := c.fl[x].Dump()
	d.Node = x
	return d
}

// flightEmit appends one record for rs to node's black box. served marks
// requests that reached fulfillment: those carry the policy name and the
// serving node as the decision target, while refusals and drops record no
// placement (Target -1). Both substrates fill the same Record schema —
// the parity test in internal/flight holds them to it.
func (c *Cluster) flightEmit(rs *request, node, status int, bytes int64, served bool) {
	rec := flight.Record{
		AtSeconds:        rs.issued.ToSeconds(),
		Node:             node,
		ConnID:           rs.id,
		Path:             rs.path,
		Status:           status,
		Bytes:            bytes,
		Target:           -1,
		Redirected:       rs.redirects > 0,
		CacheHit:         rs.cacheHit,
		PredictedSeconds: -1,
		ParseSeconds:     rs.ph.Preprocess,
		AnalyzeSeconds:   rs.ph.Analysis,
		TTFBSeconds:      -1,
		TotalSeconds:     (c.Sim.Now() - rs.issued).ToSeconds(),
	}
	if served {
		rec.Policy = c.policy.Name()
		rec.Target = node
		if rs.hasPred {
			rec.PredictedSeconds = rs.predicted
		}
	}
	if rs.hasTTFB {
		rec.TTFBSeconds = (rs.ttfbAt - rs.issued).ToSeconds()
	}
	if c.cfg.Trace.Enabled() && rs.tid >= 0 {
		rec.TraceID = strconv.FormatInt(rs.tid, 10)
	}
	c.fl[node].Add(rec)
}

// traceIDOf renders rs's trace id the way flight records carry it — the
// string a metrics exemplar must hold for the breach → flight pivot to
// resolve. Empty when tracing is off.
func (c *Cluster) traceIDOf(rs *request) string {
	if !c.cfg.Trace.Enabled() || rs.tid < 0 {
		return ""
	}
	return strconv.FormatInt(rs.tid, 10)
}

// flightComplete records a finished request at the node that served it.
// A timeout is stamped status 0 — the client gave up before the response
// was usable — which routes it to the notable ring, exactly as a live
// node's failed response write does.
func (c *Cluster) flightComplete(rs *request, timedOut bool) {
	status := 200
	bytes := rs.file.Size
	switch {
	case timedOut:
		status = 0
	case !rs.found:
		status = 404
		bytes = errorResponseBytes
	}
	c.flightEmit(rs, rs.servedBy, status, bytes, true)
}
