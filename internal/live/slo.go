package live

import (
	"fmt"
	"time"

	"sweb/internal/monitor"
	"sweb/internal/slo"
)

// SLO fetches and decodes one node's /sweb/slo lifetime-budget report.
func SLO(addr string) (*slo.Report, error) {
	return fetchJSON[slo.Report](addr, "/sweb/slo", 1<<20)
}

// SLOReport evaluates objectives over the cluster monitor's time-series
// store: cluster-wide plus per-node budgets over the trailing window
// (whole history when window <= 0). Node subjects use the monitor's
// source names, the same labels the burn-rate rules alert on. Returns an
// error before StartMonitor — rolling windows need scrape history, which
// only the monitor holds; per-node lifetime budgets are SLO(addr)'s job.
func (c *Cluster) SLOReport(objs []slo.Objective, window float64) (slo.Report, error) {
	mon := c.Monitor()
	if mon == nil {
		return slo.Report{}, fmt.Errorf("live: SLOReport needs StartMonitor's scrape history")
	}
	if len(objs) == 0 {
		objs = slo.DefaultObjectives()
	}
	nodes := make([]string, 0, len(c.Servers))
	for _, src := range c.HTTPSources(scrapeTimeout) {
		nodes = append(nodes, src.(*monitor.HTTPSource).Name)
	}
	now := time.Since(c.epoch).Seconds()
	if window <= 0 {
		window = now
	}
	return slo.Evaluate(mon.Store(), nodes, objs, window, now), nil
}
