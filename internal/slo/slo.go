// Package slo evaluates service-level objectives over the cluster's
// metrics: availability (the fraction of requests answered without a
// server-fault drop) and latency (the fraction of requests served under a
// threshold), with error-budget accounting per node and cluster-wide and
// Google-SRE-style multi-window multi-burn-rate alerting that plugs into
// the monitor's alert/hysteresis/OnFire machinery — so an SLO breach
// triggers the same snapshot bundles a node-down alert does.
//
// Counting semantics, identical on both substrates: the response-time
// histogram records only successfully served requests, and server-fault
// drops (every sweb_drops_total cause except the client-attributable
// bad_request and not_found) are the error events. An availability
// objective's total is successes plus errors; a latency objective
// additionally moves successes above the threshold into the error column,
// so a fast 503 can never satisfy a latency target.
package slo

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"sweb/internal/metrics"
	"sweb/internal/monitor"
	"sweb/internal/nodeobs"
)

// clientCauses are drop causes attributable to the client's own request;
// they consume no error budget.
var clientCauses = map[string]bool{"bad_request": true, "not_found": true}

// Objective is one declarative service-level objective. Threshold == 0
// means availability (good = any successful response); Threshold > 0 means
// latency (good = successful response in at most Threshold seconds).
type Objective struct {
	Name      string  `json:"name"`                // "avail", "p99", ...
	Target    float64 `json:"target"`              // required good fraction, e.g. 0.999
	Threshold float64 `json:"threshold,omitempty"` // seconds; 0 → availability
}

// IsLatency reports whether the objective bounds response time.
func (o Objective) IsLatency() bool { return o.Threshold > 0 }

// String renders the objective in the flag syntax ParseObjectives accepts.
func (o Objective) String() string {
	if o.IsLatency() {
		return o.Name + "=" + time.Duration(o.Threshold*float64(time.Second)).String()
	}
	return o.Name + "=" + strconv.FormatFloat(o.Target*100, 'f', -1, 64)
}

// FormatObjectives renders objectives back into the comma flag syntax.
func FormatObjectives(objs []Objective) string {
	parts := make([]string, len(objs))
	for i, o := range objs {
		parts[i] = o.String()
	}
	return strings.Join(parts, ",")
}

// DefaultObjectives is the out-of-the-box target: three nines of
// availability and 99% of requests under 250ms.
func DefaultObjectives() []Objective {
	return []Objective{
		{Name: "avail", Target: 0.999},
		{Name: "p99", Target: 0.99, Threshold: 0.25},
	}
}

// ParseObjectives parses the declarative objective syntax
// "avail=99.9,p99=250ms": avail takes a target percentage, and a pNN key
// (p50, p95, p99, p999, ...) takes a latency threshold as a Go duration,
// with the target percentile implied by the key's digits.
func ParseObjectives(s string) ([]Objective, error) {
	var out []Objective
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("slo: objective %q is not key=value", part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch {
		case key == "avail":
			pct, err := strconv.ParseFloat(val, 64)
			if err != nil || pct <= 0 || pct >= 100 {
				return nil, fmt.Errorf("slo: avail wants a percentage in (0,100), got %q", val)
			}
			out = append(out, Objective{Name: key, Target: pct / 100})
		case strings.HasPrefix(key, "p") && len(key) > 1:
			digits := key[1:]
			if _, err := strconv.Atoi(digits); err != nil {
				return nil, fmt.Errorf("slo: unknown objective key %q", key)
			}
			target, err := strconv.ParseFloat("0."+digits, 64)
			if err != nil || target <= 0 || target >= 1 {
				return nil, fmt.Errorf("slo: bad percentile key %q", key)
			}
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("slo: %s wants a positive duration, got %q", key, val)
			}
			out = append(out, Objective{Name: key, Target: target, Threshold: d.Seconds()})
		default:
			return nil, fmt.Errorf("slo: unknown objective key %q", key)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("slo: no objectives in %q", s)
	}
	return out, nil
}

// Counts is the good/total event tally of one objective over one window.
type Counts struct {
	Good  float64
	Total float64
}

// Errors is the event count charged against the budget.
func (c Counts) Errors() float64 { return c.Total - c.Good }

// ErrorRatio is errors over total; an empty window has ratio 0 (no
// traffic burns no budget).
func (c Counts) ErrorRatio() float64 {
	if c.Total <= 0 {
		return 0
	}
	return (c.Total - c.Good) / c.Total
}

// increase is monitor.Delta plus birth accounting: counters are born at
// zero, so when a series' first retained point falls inside the window,
// that value is growth the window must be charged for. Families created
// lazily — a drop cause first seen mid-window — and counts accrued before
// the monitor's first scrape would otherwise vanish from the budget.
func increase(pts []monitor.Point, from, to float64) float64 {
	d := monitor.Delta(pts, from, to)
	if len(pts) > 0 && pts[0].T >= from && pts[0].T <= to {
		d += pts[0].V
	}
	return d
}

// FromStore tallies objective o over [from,to] against the monitor's
// time-series store. node == "" aggregates the whole cluster; otherwise
// only series labelled with that node count. Deltas are reset-aware, so a
// node restart mid-window contributes its post-restart counts instead of
// a negative spike.
func FromStore(st *monitor.Store, o Objective, node string, from, to float64) Counts {
	sel := metrics.Labels{}
	if node != "" {
		sel["node"] = node
	}
	var drops, resp float64
	for _, s := range st.Select(nodeobs.Drops, sel) {
		if clientCauses[s.Labels["cause"]] {
			continue
		}
		drops += increase(s.Points, from, to)
	}
	for _, s := range st.Select(nodeobs.Response+"_count", sel) {
		resp += increase(s.Points, from, to)
	}
	total := resp + drops
	if !o.IsLatency() {
		return Counts{Good: resp, Total: total}
	}
	good := storeCountAtOrBelow(st, nodeobs.Response, sel, o.Threshold, from, to)
	if good > total {
		good = total
	}
	return Counts{Good: good, Total: total}
}

// storeCountAtOrBelow sums, across every matching histogram instance, the
// windowed delta of the largest cumulative bucket whose upper bound is at
// or below the threshold. A threshold between bucket edges thus rounds
// DOWN to the nearest edge — the conservative direction: a request is only
// counted good when the histogram proves it was under the threshold. A
// threshold below the smallest edge counts nothing as good.
func storeCountAtOrBelow(st *monitor.Store, name string, sel metrics.Labels, threshold, from, to float64) float64 {
	type pick struct {
		le  float64
		pts []monitor.Point
	}
	best := make(map[string]pick)
	for _, s := range st.Select(name+"_bucket", sel) {
		leStr, ok := s.Labels["le"]
		if !ok || leStr == "+Inf" {
			continue
		}
		le, err := strconv.ParseFloat(leStr, 64)
		if err != nil || le > threshold {
			continue
		}
		key := bucketGroupKey(name, s.Labels)
		if cur, seen := best[key]; !seen || le > cur.le {
			best[key] = pick{le: le, pts: s.Points}
		}
	}
	var sum float64
	for _, p := range best {
		sum += increase(p.pts, from, to)
	}
	return sum
}

// bucketGroupKey identifies one histogram instance: its labels minus le.
func bucketGroupKey(name string, labels metrics.Labels) string {
	rest := make(metrics.Labels, len(labels))
	for k, v := range labels {
		if k != "le" {
			rest[k] = v
		}
	}
	return metrics.Sample{Name: name, Labels: rest}.Key()
}

// FromSamples tallies objective o against one cumulative scrape (a node's
// registry since process start — the "lifetime window" a node reports on
// /sweb/slo, where no time-series history exists).
func FromSamples(samples []metrics.Sample, o Objective) Counts {
	var drops, resp float64
	type pick struct {
		le float64
		v  float64
	}
	best := make(map[string]pick)
	for _, s := range samples {
		switch s.Name {
		case nodeobs.Drops:
			if !clientCauses[s.Labels["cause"]] {
				drops += s.Value
			}
		case nodeobs.Response + "_count":
			resp += s.Value
		case nodeobs.Response + "_bucket":
			if !o.IsLatency() {
				continue
			}
			leStr, ok := s.Labels["le"]
			if !ok || leStr == "+Inf" {
				continue
			}
			le, err := strconv.ParseFloat(leStr, 64)
			if err != nil || le > o.Threshold {
				continue
			}
			key := bucketGroupKey(nodeobs.Response, s.Labels)
			if cur, seen := best[key]; !seen || le > cur.le {
				best[key] = pick{le: le, v: s.Value}
			}
		}
	}
	total := resp + drops
	if !o.IsLatency() {
		return Counts{Good: resp, Total: total}
	}
	var good float64
	for _, p := range best {
		good += p.v
	}
	if good > total {
		good = total
	}
	return Counts{Good: good, Total: total}
}

// Status is one objective's error-budget accounting over one window.
type Status struct {
	Objective       Objective `json:"objective"`
	WindowSeconds   float64   `json:"window_seconds"`
	Good            float64   `json:"good"`
	Total           float64   `json:"total"`
	Errors          float64   `json:"errors"`
	ErrorRatio      float64   `json:"error_ratio"`
	BurnRate        float64   `json:"burn_rate"`
	BudgetRemaining float64   `json:"budget_remaining"` // fraction; negative = overdrawn
	Met             bool      `json:"met"`
}

// NewStatus derives the budget arithmetic for one objective's counts over
// a window: burn rate is the window's error ratio over the error budget
// (1 - target), and the remaining budget is what a full window at this
// ratio leaves. A target of 100% has zero budget: any error burns at +Inf.
func NewStatus(o Objective, c Counts, windowSeconds float64) Status {
	ratio := c.ErrorRatio()
	budget := 1 - o.Target
	var burn float64
	switch {
	case budget > 0:
		burn = ratio / budget
	case ratio > 0:
		burn = math.Inf(1)
	}
	return Status{
		Objective:       o,
		WindowSeconds:   windowSeconds,
		Good:            c.Good,
		Total:           c.Total,
		Errors:          c.Errors(),
		ErrorRatio:      ratio,
		BurnRate:        burn,
		BudgetRemaining: 1 - burn,
		Met:             burn <= 1,
	}
}

// Report is an SLO evaluation at one instant for one scope (a node or the
// cluster), optionally broken down per node.
type Report struct {
	AtSeconds     float64             `json:"at_seconds"`
	WindowSeconds float64             `json:"window_seconds"`
	Scope         string              `json:"scope"`
	Objectives    []Status            `json:"objectives"`
	Nodes         map[string][]Status `json:"nodes,omitempty"`
}

// Breached reports whether any objective in the report's scope is unmet.
func (r Report) Breached() bool {
	for _, s := range r.Objectives {
		if !s.Met {
			return true
		}
	}
	return false
}

// Evaluate computes the budget report over the trailing window
// [now-window, now]: cluster-wide statuses plus a per-node breakdown.
func Evaluate(st *monitor.Store, nodes []string, objs []Objective, window, now float64) Report {
	r := Report{
		AtSeconds:     now,
		WindowSeconds: window,
		Scope:         "cluster",
		Nodes:         make(map[string][]Status, len(nodes)),
	}
	for _, o := range objs {
		r.Objectives = append(r.Objectives, NewStatus(o, FromStore(st, o, "", now-window, now), window))
	}
	for _, node := range nodes {
		for _, o := range objs {
			r.Nodes[node] = append(r.Nodes[node], NewStatus(o, FromStore(st, o, node, now-window, now), window))
		}
	}
	return r
}

// EvaluateSamples builds a single-scope report from one cumulative scrape.
func EvaluateSamples(samples []metrics.Sample, objs []Objective, scope string, window, now float64) Report {
	r := Report{AtSeconds: now, WindowSeconds: window, Scope: scope}
	for _, o := range objs {
		r.Objectives = append(r.Objectives, NewStatus(o, FromSamples(samples, o), window))
	}
	return r
}

// Render formats a report as the aligned text panel swebtop and swebsim
// print: one row per objective, budget remaining as a signed percentage.
func Render(r Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SLO %s (window %.0fs)\n", r.Scope, r.WindowSeconds)
	writeRows := func(indent string, sts []Status) {
		for _, s := range sts {
			verdict := "ok"
			if !s.Met {
				verdict = "BREACH"
			}
			fmt.Fprintf(&b, "%s%-6s target %7s  good %7.0f/%-7.0f err %6.3f%%  burn %6.2fx  budget %7.1f%%  %s\n",
				indent, s.Objective.Name, s.Objective.String(),
				s.Good, s.Total, 100*s.ErrorRatio, s.BurnRate, 100*s.BudgetRemaining, verdict)
		}
	}
	writeRows("  ", r.Objectives)
	if len(r.Nodes) > 0 {
		nodes := make([]string, 0, len(r.Nodes))
		for n := range r.Nodes {
			nodes = append(nodes, n)
		}
		sort.Strings(nodes)
		for _, n := range nodes {
			fmt.Fprintf(&b, "  node %s\n", n)
			writeRows("    ", r.Nodes[n])
		}
	}
	return b.String()
}
