package live

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"sweb/internal/flight"
	"sweb/internal/heat"
	"sweb/internal/httpd"
	"sweb/internal/httpmsg"
	"sweb/internal/metrics"
	"sweb/internal/nodeobs"
	"sweb/internal/slo"
	"sweb/internal/stats"
	"sweb/internal/trace"
)

// scrapeTimeout bounds one introspection fetch; dead nodes fail the dial
// fast and are skipped.
const scrapeTimeout = 5 * time.Second

// fetchJSON fetches one node's introspection endpoint and decodes its JSON
// body — the reader every JSON /sweb/* scrape shares.
func fetchJSON[T any](addr, pathAndQuery string, maxBytes int64) (*T, error) {
	code, _, body, err := fetchOnce(addr, pathAndQuery, scrapeTimeout, maxBytes)
	if err != nil {
		return nil, err
	}
	endpoint, _, _ := strings.Cut(pathAndQuery, "?")
	if code != httpmsg.StatusOK {
		return nil, fmt.Errorf("live: %s%s returned %d", addr, endpoint, code)
	}
	v := new(T)
	if err := json.Unmarshal(body, v); err != nil {
		return nil, fmt.Errorf("live: %s%s: %v", addr, endpoint, err)
	}
	return v, nil
}

// Status fetches and decodes one node's /sweb/status.
func Status(addr string) (*httpd.StatusReport, error) {
	return fetchJSON[httpd.StatusReport](addr, "/sweb/status", 16<<20)
}

// Flight fetches and decodes one node's /sweb/flight black-box dump.
func Flight(addr string) (*flight.Dump, error) {
	return fetchJSON[flight.Dump](addr, "/sweb/flight", 16<<20)
}

// SLO fetches and decodes one node's /sweb/slo lifetime-budget report.
func SLO(addr string) (*slo.Report, error) {
	return fetchJSON[slo.Report](addr, "/sweb/slo", 1<<20)
}

// MergedHeat folds every live node's document-heat sketch into the
// cluster-wide ranking — the in-process analogue of scraping and merging
// /sweb/heat from each node. Dead nodes are skipped.
func (c *Cluster) MergedHeat() heat.Merged {
	var dumps []heat.Dump
	for _, srv := range c.Servers {
		if srv == nil || srv.Closed() {
			continue
		}
		dumps = append(dumps, srv.HeatDump())
	}
	return heat.Merge(dumps)
}

// Heat fetches and decodes one node's /sweb/heat document-heat dump.
func Heat(addr string) (*heat.Dump, error) {
	return fetchJSON[heat.Dump](addr, "/sweb/heat", 16<<20)
}

// ReplicateCmd asks one node to apply a replica-set change via
// /sweb/replicate: the addressed node materializes (add) or retires
// (drop) its own copy when node is its id, and otherwise just records
// the routing fact. Returns the replica set the node reports afterward.
func ReplicateCmd(addr, path string, node int, action string) ([]int, error) {
	q := fmt.Sprintf("/sweb/replicate?path=%s&node=%d&action=%s",
		httpmsg.EscapePath(path), node, action)
	resp, err := fetchJSON[struct {
		Replicas []int `json:"replicas"`
	}](addr, q, 1<<20)
	if err != nil {
		return nil, err
	}
	return resp.Replicas, nil
}

// TriggerSnapshot asks one node to write a diagnostic bundle via
// /sweb/snapshot and returns the bundle path (local to that node).
func TriggerSnapshot(addr string) (string, error) {
	resp, err := fetchJSON[struct {
		Bundle string `json:"bundle"`
	}](addr, "/sweb/snapshot", 1<<20)
	if err != nil {
		return "", err
	}
	return resp.Bundle, nil
}

// Metrics scrapes and parses one node's /sweb/metrics exposition.
func Metrics(addr string) ([]metrics.Sample, error) {
	code, _, body, err := fetchOnce(addr, "/sweb/metrics", scrapeTimeout, 16<<20)
	if err != nil {
		return nil, err
	}
	if code != httpmsg.StatusOK {
		return nil, fmt.Errorf("live: %s/sweb/metrics returned %d", addr, code)
	}
	return metrics.ParseText(strings.NewReader(string(body)))
}

// ScrapeTrace fetches and decodes one node's /sweb/trace dump.
func ScrapeTrace(addr string) (*httpd.TraceDump, error) {
	return fetchJSON[httpd.TraceDump](addr, "/sweb/trace", 64<<20)
}

// ScrapeTraces pulls every live node's event stream into a Collector —
// each anchored by the epoch the node advertised — and returns it with the
// number of nodes that contributed. Dead nodes and nodes with tracing off
// are skipped.
func (c *Cluster) ScrapeTraces() (*trace.Collector, int) {
	col := trace.NewCollector()
	up := 0
	for _, srv := range c.Servers {
		dump, err := ScrapeTrace(srv.Addr())
		if err != nil || !dump.Enabled {
			continue
		}
		col.Add(dump.EpochUnix, dump.Events)
		up++
	}
	return col, up
}

// ScrapeMetrics scrapes every node, skipping the dead ones (a killed node
// refuses the dial — exactly the condition the chaos tests probe), and
// returns the merged samples plus the number of nodes that answered.
func (c *Cluster) ScrapeMetrics() ([]metrics.Sample, int) {
	var scrapes [][]metrics.Sample
	up := 0
	for _, srv := range c.Servers {
		samples, err := Metrics(srv.Addr())
		if err != nil {
			continue
		}
		scrapes = append(scrapes, samples)
		up++
	}
	return metrics.MergeSamples(scrapes...), up
}

// MetricValue reads one merged sample, 0 when absent.
func MetricValue(samples []metrics.Sample, name string, labels metrics.Labels) float64 {
	v, _ := metrics.Value(samples, name, labels)
	return v
}

// PhaseStat is one row of the report's per-phase latency table.
type PhaseStat struct {
	Phase string
	Count float64
	P50   float64
	P95   float64
}

// PredictionStat compares the broker's predicted t_s term against the
// measured time for one phase, cluster-wide. Error is
// (predicted-actual)/actual; NaN with no comparisons.
type PredictionStat struct {
	Phase         string
	PredictedMean float64
	ActualMean    float64
	Error         float64
}

// ClusterReport is the paper-style aggregate view of a live run,
// assembled from every reachable node's exposition.
type ClusterReport struct {
	NodesUp      int
	Policy       string
	Connected    float64
	Sent         float64
	Redirected   float64
	Refused      float64
	RedirectRate float64 // redirected / connected
	Drops        map[string]float64
	Phases       []PhaseStat
	Prediction   []PredictionStat
	Compared     float64 // requests with both prediction and measurement
}

// Report scrapes the cluster and reduces the merged samples to the
// redirect rate, per-phase latency quantiles, and the predicted-vs-actual
// t_s error — the live analogue of the paper's Table 5.
func (c *Cluster) Report() (*ClusterReport, error) {
	samples, up := c.ScrapeMetrics()
	if up == 0 {
		return nil, fmt.Errorf("live: no node answered /sweb/metrics")
	}
	r := &ClusterReport{
		NodesUp:    up,
		Connected:  MetricValue(samples, nodeobs.Events, metrics.Labels{"event": "connected"}),
		Sent:       MetricValue(samples, nodeobs.Events, metrics.Labels{"event": "sent"}),
		Redirected: MetricValue(samples, nodeobs.Events, metrics.Labels{"event": "redirected"}),
		Refused:    MetricValue(samples, nodeobs.Events, metrics.Labels{"event": "refused"}),
		Compared:   MetricValue(samples, nodeobs.SchedCompared, nil),
		Drops:      map[string]float64{},
	}
	if r.Connected > 0 {
		r.RedirectRate = r.Redirected / r.Connected
	}
	for _, s := range samples {
		if s.Name == nodeobs.Drops {
			r.Drops[s.Labels["cause"]] += s.Value
		}
	}
	for _, phase := range nodeobs.Phases {
		sel := metrics.Labels{"phase": phase}
		buckets := metrics.Buckets(samples, nodeobs.Phase, sel)
		count := MetricValue(samples, nodeobs.Phase+"_count", sel)
		if count == 0 {
			continue
		}
		r.Phases = append(r.Phases, PhaseStat{
			Phase: phase,
			Count: count,
			P50:   metrics.HistogramQuantile(0.50, buckets),
			P95:   metrics.HistogramQuantile(0.95, buckets),
		})
	}
	for _, phase := range []string{"cpu", "data", "total"} {
		sel := metrics.Labels{"phase": phase}
		pred, okP := metrics.Value(samples, nodeobs.SchedPredicted, sel)
		act, okA := metrics.Value(samples, nodeobs.SchedActual, sel)
		if !okP || !okA || r.Compared == 0 {
			continue
		}
		ps := PredictionStat{
			Phase:         phase,
			PredictedMean: pred / r.Compared,
			ActualMean:    act / r.Compared,
			Error:         math.NaN(),
		}
		if act > 0 {
			ps.Error = (pred - act) / act
		}
		r.Prediction = append(r.Prediction, ps)
	}
	// The policy is uniform across the cluster; read it off any live node.
	for _, srv := range c.Servers {
		if rep, err := Status(srv.Addr()); err == nil {
			r.Policy = rep.Config.Policy
			break
		}
	}
	return r, nil
}

// RenderReport prints the cluster report as the paper-style text tables.
func RenderReport(r *ClusterReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster report — policy %s, %d node(s) up\n", r.Policy, r.NodesUp)
	fmt.Fprintf(&b, "requests %.0f, sent %.0f, redirected %.0f (rate %.1f%%), refused %.0f\n",
		r.Connected, r.Sent, r.Redirected, 100*r.RedirectRate, r.Refused)
	if len(r.Drops) > 0 {
		causes := make([]string, 0, len(r.Drops))
		for c := range r.Drops {
			causes = append(causes, c)
		}
		sort.Strings(causes)
		b.WriteString("drops:")
		for _, c := range causes {
			fmt.Fprintf(&b, " %s=%.0f", c, r.Drops[c])
		}
		b.WriteByte('\n')
	}
	if len(r.Phases) > 0 {
		tbl := stats.Table{
			Title:  "per-phase service time (live Table 5)",
			Header: []string{"phase", "count", "p50", "p95"},
		}
		for _, p := range r.Phases {
			tbl.AddRowStrings(p.Phase, fmt.Sprintf("%.0f", p.Count),
				stats.FormatSeconds(p.P50), stats.FormatSeconds(p.P95))
		}
		b.WriteString(tbl.String())
	}
	if len(r.Prediction) > 0 {
		tbl := stats.Table{
			Title:  fmt.Sprintf("predicted vs actual t_s (%.0f compared requests)", r.Compared),
			Header: []string{"phase", "predicted mean", "actual mean", "error"},
		}
		for _, p := range r.Prediction {
			errCell := "n/a"
			if !math.IsNaN(p.Error) {
				errCell = fmt.Sprintf("%+.0f%%", 100*p.Error)
			}
			tbl.AddRowStrings(p.Phase, stats.FormatSeconds(p.PredictedMean),
				stats.FormatSeconds(p.ActualMean), errCell)
		}
		b.WriteString(tbl.String())
	}
	return b.String()
}
