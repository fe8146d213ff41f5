package monitor

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"sweb/internal/metrics"
	"sweb/internal/nodeobs"
	"sweb/internal/stats"
)

// TimelineRow is one node's state at one collection round — the unit the
// load-over-time CSV and the dashboard's history sparkline consume.
type TimelineRow struct {
	T            float64 `json:"t"`
	Node         string  `json:"node"`
	Up           bool    `json:"up"`
	Inflight     float64 `json:"inflight"`
	DiskActive   float64 `json:"disk_active"`
	NetActive    float64 `json:"net_active"`
	ReqRate      float64 `json:"req_rate"`      // connected events/s over the window
	RedirectRate float64 `json:"redirect_rate"` // redirected events/s over the window
}

// captureRows appends one TimelineRow per node for this round. Caller
// holds m.mu.
func (m *Monitor) captureRows(v *View, now float64) {
	for _, n := range v.Nodes {
		row := TimelineRow{T: now, Node: n, Up: v.up(n)}
		row.Inflight, _ = v.latest(nodeobs.Inflight, metrics.Labels{"node": n})
		row.DiskActive, _ = v.latest(nodeobs.DiskActive, metrics.Labels{"node": n})
		row.NetActive, _ = v.latest(nodeobs.NetActive, metrics.Labels{"node": n})
		row.ReqRate = Rate(m.store.Points(nodeobs.Events,
			metrics.Labels{"event": "connected", "node": n}), v.From, v.To)
		row.RedirectRate = Rate(m.store.Points(nodeobs.Events,
			metrics.Labels{"event": "redirected", "node": n}), v.From, v.To)
		m.rows = append(m.rows, row)
	}
}

// Timeline returns every captured row, oldest round first.
func (m *Monitor) Timeline() []TimelineRow {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]TimelineRow(nil), m.rows...)
}

// WriteTimelineCSV exports the per-round per-node load timeline — the
// artifact the EXPERIMENTS.md walkthrough plots from either substrate.
func (m *Monitor) WriteTimelineCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "t,node,up,inflight,disk_active,net_active,req_rate,redirect_rate\n"); err != nil {
		return err
	}
	for _, r := range m.Timeline() {
		up := 0
		if r.Up {
			up = 1
		}
		if _, err := fmt.Fprintf(w, "%g,%s,%d,%g,%g,%g,%.4g,%.4g\n",
			r.T, r.Node, up, r.Inflight, r.DiskActive, r.NetActive, r.ReqRate, r.RedirectRate); err != nil {
			return err
		}
	}
	return nil
}

// NodeRow is one node's line in a Snapshot.
type NodeRow struct {
	Node         string  `json:"node"`
	Up           bool    `json:"up"`
	Inflight     float64 `json:"inflight"`
	Capacity     float64 `json:"capacity"`
	DiskActive   float64 `json:"disk_active"`
	NetActive    float64 `json:"net_active"`
	Goroutines   float64 `json:"goroutines,omitempty"`
	HeapBytes    float64 `json:"heap_bytes,omitempty"`
	ReqRate      float64 `json:"req_rate"`
	RedirectRate float64 `json:"redirect_rate"`
	BytesOutRate float64 `json:"bytes_out_rate"`
}

// PhaseRow is one lifecycle phase's windowed latency summary.
type PhaseRow struct {
	Phase string  `json:"phase"`
	Count float64 `json:"count"` // observations inside the window
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
}

// Snapshot is the dashboard's world-state at one instant: per-node load,
// windowed phase quantiles, and the firing alerts — the monitor-derived
// analogue of the paper's Table 4/5 rendered from live scrapes or from a
// simulator run alike.
type Snapshot struct {
	T       float64    `json:"t"`
	Window  float64    `json:"window"`
	Nodes   []NodeRow  `json:"nodes"`
	Phases  []PhaseRow `json:"phases"`
	P50     float64    `json:"response_p50"`
	P95     float64    `json:"response_p95"`
	Alerts  []Alert    `json:"alerts"`
	Rounds  int64      `json:"rounds"`
	Metrics int        `json:"series"`
}

// Snapshot reduces the store's current window to the dashboard view.
func (m *Monitor) Snapshot() *Snapshot {
	m.mu.Lock()
	now := m.lastT
	window := m.cfg.Window
	nodes := append([]string(nil), m.nodes...)
	rounds := m.rounds
	m.mu.Unlock()

	from, to := now-window, now
	v := &View{Store: m.store, Nodes: nodes, From: from, To: to}
	snap := &Snapshot{T: now, Window: window, Rounds: rounds, Metrics: m.store.SeriesCount()}
	for _, n := range nodes {
		row := NodeRow{Node: n, Up: v.up(n)}
		row.Inflight, _ = v.latest(nodeobs.Inflight, metrics.Labels{"node": n})
		row.Capacity, _ = v.latest(nodeobs.Capacity, metrics.Labels{"node": n})
		row.DiskActive, _ = v.latest(nodeobs.DiskActive, metrics.Labels{"node": n})
		row.NetActive, _ = v.latest(nodeobs.NetActive, metrics.Labels{"node": n})
		row.Goroutines, _ = v.latest(nodeobs.Goroutines, metrics.Labels{"node": n})
		row.HeapBytes, _ = v.latest(nodeobs.HeapAllocBytes, metrics.Labels{"node": n})
		row.ReqRate = Rate(m.store.Points(nodeobs.Events,
			metrics.Labels{"event": "connected", "node": n}), from, to)
		row.RedirectRate = Rate(m.store.Points(nodeobs.Events,
			metrics.Labels{"event": "redirected", "node": n}), from, to)
		for _, s := range m.store.Select(nodeobs.BytesOut, metrics.Labels{"node": n}) {
			row.BytesOutRate += Rate(s.Points, from, to)
		}
		snap.Nodes = append(snap.Nodes, row)
	}
	for _, phase := range nodeobs.Phases {
		sel := metrics.Labels{"phase": phase}
		count := m.store.WindowedCount(nodeobs.Phase, sel, from, to)
		if count == 0 {
			continue
		}
		snap.Phases = append(snap.Phases, PhaseRow{
			Phase: phase,
			Count: count,
			P50:   m.store.HistogramQuantile(0.5, nodeobs.Phase, sel, from, to),
			P95:   m.store.HistogramQuantile(0.95, nodeobs.Phase, sel, from, to),
		})
	}
	if m.store.WindowedCount(nodeobs.Response, nil, from, to) > 0 {
		snap.P50 = m.store.HistogramQuantile(0.5, nodeobs.Response, nil, from, to)
		snap.P95 = m.store.HistogramQuantile(0.95, nodeobs.Response, nil, from, to)
	}
	snap.Alerts = m.Alerts()
	return snap
}

// RenderSnapshot renders the snapshot as fixed-width tables for a
// terminal (or a -once CI log).
func RenderSnapshot(s *Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweb monitor · t=%.1fs · window=%.0fs · rounds=%d · series=%d\n\n",
		s.T, s.Window, s.Rounds, s.Metrics)

	nt := &stats.Table{
		Title:  "Nodes",
		Header: []string{"node", "up", "load", "cap", "disk", "net", "req/s", "redir/s", "out MB/s", "goroutines", "heap MB"},
	}
	for _, n := range s.Nodes {
		up := "up"
		if !n.Up {
			up = "DOWN"
		}
		nt.AddRowStrings(n.Node, up,
			fmt.Sprintf("%.0f", n.Inflight),
			fmt.Sprintf("%.0f", n.Capacity),
			fmt.Sprintf("%.0f", n.DiskActive),
			fmt.Sprintf("%.0f", n.NetActive),
			fmt.Sprintf("%.2f", n.ReqRate),
			fmt.Sprintf("%.2f", n.RedirectRate),
			fmt.Sprintf("%.3f", n.BytesOutRate/1e6),
			fmt.Sprintf("%.0f", n.Goroutines),
			fmt.Sprintf("%.1f", n.HeapBytes/1e6))
	}
	b.WriteString(nt.String())
	b.WriteString("\n")

	if len(s.Phases) > 0 {
		pt := &stats.Table{
			Title:  "Phases (windowed)",
			Header: []string{"phase", "count", "p50", "p95"},
		}
		for _, p := range s.Phases {
			pt.AddRowStrings(p.Phase,
				fmt.Sprintf("%.0f", p.Count),
				quantileCell(p.P50), quantileCell(p.P95))
		}
		b.WriteString(pt.String())
		b.WriteString("\n")
	}
	if s.P50 != 0 || s.P95 != 0 {
		fmt.Fprintf(&b, "response: p50=%s p95=%s\n\n", quantileCell(s.P50), quantileCell(s.P95))
	}

	if len(s.Alerts) == 0 {
		b.WriteString("alerts: none\n")
	} else {
		at := &stats.Table{
			Title:  "Alerts (firing)",
			Header: []string{"rule", "subject", "value", "threshold", "since"},
		}
		for _, a := range s.Alerts {
			subject := a.Node
			if subject == "" {
				subject = "cluster"
			}
			at.AddRowStrings(a.Rule, subject,
				fmt.Sprintf("%.3g", a.Value),
				fmt.Sprintf("%.3g", a.Threshold),
				fmt.Sprintf("t=%.1fs", a.SinceT))
		}
		b.WriteString(at.String())
	}
	return b.String()
}

// quantileCell formats a quantile estimate, dashing out NaN (an empty
// window).
func quantileCell(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return stats.FormatSeconds(v)
}

// SortedAlertKeys is a test helper: the firing {rule, subject} pairs as
// "rule/subject" strings, sorted.
func SortedAlertKeys(alerts []Alert) []string {
	out := make([]string, 0, len(alerts))
	for _, a := range alerts {
		out = append(out, a.Rule+"/"+a.Node)
	}
	sort.Strings(out)
	return out
}
