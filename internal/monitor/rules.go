package monitor

import (
	"math"

	"sweb/internal/metrics"
	"sweb/internal/nodeobs"
)

// RuleConfig tunes the paper-grounded default alert rules. Zero fields
// take the documented defaults.
type RuleConfig struct {
	// OverloadUtilization fires node_overload when a node's inflight
	// connections reach this fraction of its advertised accept capacity
	// (sweb_capacity) — the MAXLOAD dropping threshold made observable
	// (default 0.9).
	OverloadUtilization float64
	// ImbalanceCoV fires load_imbalance when the coefficient of variation
	// of per-node CPU load across up nodes exceeds it (default 0.75) —
	// the condition the t_s broker is supposed to prevent.
	ImbalanceCoV float64
	// ImbalanceMinLoad suppresses load_imbalance while the mean per-node
	// load is below it; an idle cluster is trivially "imbalanced"
	// (default 1).
	ImbalanceMinLoad float64
	// StalenessSeconds fires gossip_stale when any up node's view of a
	// peer's last broadcast is older than this — match it to the loadd
	// timeout (default 8, the live default).
	StalenessSeconds float64
	// RedirectRatio fires redirect_spike when the cluster-wide ratio of
	// redirects to connections over the window exceeds it (default 0.5):
	// the paper caps re-routing at one hop precisely because redirects
	// burn client round-trips.
	RedirectRatio float64
	// RedirectMinRate suppresses redirect_spike below this request rate
	// (default 1 rps).
	RedirectMinRate float64
	// PredictionErrorSeconds fires prediction_drift when the windowed
	// mean |predicted - actual| t_s exceeds it (default 0.75s).
	PredictionErrorSeconds float64
	// PredictionMinCompared suppresses prediction_drift with fewer
	// compared requests in the window (default 5).
	PredictionMinCompared float64
	// CacheMissRatio fires cache_low_hit when a node's windowed cache
	// miss ratio (Δmisses / Δlookups) reaches it (default 0.9): a hot-file
	// cache that almost never hits means the working set outgrew the
	// capacity — the regime where the paper's superlinear speedup
	// evaporates — or the cache was sized wrong.
	CacheMissRatio float64
	// CacheMinLookups suppresses cache_low_hit with fewer cache lookups
	// in the window (default 20); a cold or idle cache is not a failing
	// one.
	CacheMinLookups float64
	// HotDocShare fires hot_doc when one document draws more than this
	// fraction of the cluster's served requests over the window (default
	// 0.5): the paper's skewed-workload pathology, where a single hot
	// file collapses the "parallel" server onto one node, caught while
	// it happens. Keyed by path, read from the sweb_heat_* families.
	HotDocShare float64
	// HotDocMinRate suppresses hot_doc below this cluster-wide served
	// request rate (default 1 rps); one request in an idle window is
	// trivially 100% of the traffic.
	HotDocMinRate float64
	// ForSamples is how many consecutive breached (or cleared) collection
	// rounds a rule needs before changing state — the hysteresis that
	// stops threshold flapping (default 2).
	ForSamples int
	// ClearFraction scales a rule's fire threshold down to its clear
	// threshold (default 0.7): once firing, the signal must drop well
	// below the trigger before the alert clears.
	ClearFraction float64
}

func (c *RuleConfig) fillDefaults() {
	if c.OverloadUtilization == 0 {
		c.OverloadUtilization = 0.9
	}
	if c.ImbalanceCoV == 0 {
		c.ImbalanceCoV = 0.75
	}
	if c.ImbalanceMinLoad == 0 {
		c.ImbalanceMinLoad = 1
	}
	if c.StalenessSeconds == 0 {
		c.StalenessSeconds = 8
	}
	if c.RedirectRatio == 0 {
		c.RedirectRatio = 0.5
	}
	if c.RedirectMinRate == 0 {
		c.RedirectMinRate = 1
	}
	if c.PredictionErrorSeconds == 0 {
		c.PredictionErrorSeconds = 0.75
	}
	if c.PredictionMinCompared == 0 {
		c.PredictionMinCompared = 5
	}
	if c.CacheMissRatio == 0 {
		c.CacheMissRatio = 0.9
	}
	if c.CacheMinLookups == 0 {
		c.CacheMinLookups = 20
	}
	if c.HotDocShare == 0 {
		c.HotDocShare = 0.5
	}
	if c.HotDocMinRate == 0 {
		c.HotDocMinRate = 1
	}
	if c.ForSamples == 0 {
		c.ForSamples = 2
	}
	if c.ClearFraction == 0 {
		c.ClearFraction = 0.7
	}
}

// View is what a rule evaluation sees: the store plus the collection round
// it runs in. From/To bound the rule's derivation window and Nodes lists
// every node name the monitor has ever scraped.
type View struct {
	Store *Store
	Nodes []string
	From  float64
	To    float64
}

// latest reads the newest value of name{labels}, false when absent.
func (v *View) latest(name string, labels metrics.Labels) (float64, bool) {
	p, ok := Latest(v.Store.Points(name, labels))
	return p.V, ok
}

// up reports whether the node's last scrape succeeded.
func (v *View) up(node string) bool {
	val, ok := v.latest(metricUp, metrics.Labels{"node": node})
	return ok && val > 0
}

// Rule is one alert definition. Eval returns the observed value per
// subject (a node name, or "" for a cluster-wide rule); a subject at or
// above Fire for For consecutive rounds starts firing, and clears again
// only after For consecutive rounds below Clear.
type Rule struct {
	Name  string
	Fire  float64
	Clear float64
	For   int
	Eval  func(v *View) map[string]float64
}

// DefaultRules builds the paper-grounded rule set.
func DefaultRules(cfg RuleConfig) []Rule {
	cfg.fillDefaults()
	hy := func(name string, fire float64, eval func(v *View) map[string]float64) Rule {
		return Rule{Name: name, Fire: fire, Clear: fire * cfg.ClearFraction, For: cfg.ForSamples, Eval: eval}
	}
	return []Rule{
		// node_down: the scrape itself is the health check; a node that
		// stops answering /sweb/metrics is gone from the resource pool.
		{Name: "node_down", Fire: 1, Clear: 1, For: cfg.ForSamples, Eval: func(v *View) map[string]float64 {
			out := make(map[string]float64)
			for _, n := range v.Nodes {
				if v.up(n) {
					out[n] = 0
				} else {
					out[n] = 1
				}
			}
			return out
		}},
		hy("node_overload", cfg.OverloadUtilization, func(v *View) map[string]float64 {
			out := make(map[string]float64)
			for _, n := range v.Nodes {
				if !v.up(n) {
					continue
				}
				inflight, ok := v.latest(nodeobs.Inflight, metrics.Labels{"node": n})
				capacity, ok2 := v.latest(nodeobs.Capacity, metrics.Labels{"node": n})
				if !ok || !ok2 || capacity <= 0 {
					continue
				}
				out[n] = inflight / capacity
			}
			return out
		}),
		hy("load_imbalance", cfg.ImbalanceCoV, func(v *View) map[string]float64 {
			var loads []float64
			for _, n := range v.Nodes {
				if !v.up(n) {
					continue
				}
				if l, ok := v.latest(nodeobs.Inflight, metrics.Labels{"node": n}); ok {
					loads = append(loads, l)
				}
			}
			if len(loads) < 2 {
				return map[string]float64{"": 0}
			}
			var sum float64
			for _, l := range loads {
				sum += l
			}
			mean := sum / float64(len(loads))
			if mean < cfg.ImbalanceMinLoad {
				return map[string]float64{"": 0}
			}
			var varsum float64
			for _, l := range loads {
				varsum += (l - mean) * (l - mean)
			}
			return map[string]float64{"": math.Sqrt(varsum/float64(len(loads))) / mean}
		}),
		// gossip_stale is keyed by the silent peer: the maximum broadcast
		// age any up node reports for it. A killed node's age grows on
		// every survivor until its loadd row would time out.
		hy("gossip_stale", cfg.StalenessSeconds, func(v *View) map[string]float64 {
			out := make(map[string]float64)
			for _, n := range v.Nodes {
				if !v.up(n) {
					continue
				}
				for _, s := range v.Store.Select(nodeobs.GossipAge, metrics.Labels{"node": n}) {
					peer := s.Labels["peer"]
					p, ok := Latest(s.Points)
					if peer == "" || !ok || p.T < v.To {
						continue // only this round's reading counts
					}
					if p.V > out[peer] {
						out[peer] = p.V
					}
				}
			}
			return out
		}),
		hy("redirect_spike", cfg.RedirectRatio, func(v *View) map[string]float64 {
			var reqRate, redirRate float64
			for _, n := range v.Nodes {
				reqRate += Rate(v.Store.Points(nodeobs.Events,
					metrics.Labels{"event": "connected", "node": n}), v.From, v.To)
				redirRate += Rate(v.Store.Points(nodeobs.Events,
					metrics.Labels{"event": "redirected", "node": n}), v.From, v.To)
			}
			if reqRate < cfg.RedirectMinRate {
				return map[string]float64{"": 0}
			}
			return map[string]float64{"": redirRate / reqRate}
		}),
		// cache_low_hit is keyed by node: the windowed miss ratio of its
		// hot-file cache, suppressed until the window holds enough
		// lookups to mean something. Both substrates publish the same
		// sweb_cache_* counters, so one rule reads either.
		hy("cache_low_hit", cfg.CacheMissRatio, func(v *View) map[string]float64 {
			out := make(map[string]float64)
			for _, n := range v.Nodes {
				if !v.up(n) {
					continue
				}
				hits := Delta(v.Store.Points(nodeobs.CacheHits, metrics.Labels{"node": n}), v.From, v.To)
				misses := Delta(v.Store.Points(nodeobs.CacheMisses, metrics.Labels{"node": n}), v.From, v.To)
				if hits+misses < cfg.CacheMinLookups {
					out[n] = 0
					continue
				}
				out[n] = misses / (hits + misses)
			}
			return out
		}),
		// hot_doc is keyed by document path: the share of the cluster's
		// served requests one document drew over the window, from the
		// per-path sweb_heat_requests_total counters against the
		// sweb_heat_observations_total denominator. Both substrates
		// publish the same families, so one rule reads either. The share
		// is divided by the document's replica-set size (the max
		// sweb_heat_replicas gauge any node reports, default 1): R
		// replicas split the load R ways, so a replicated document is
		// only pathological when its per-copy share still breaches — and
		// the rebalancer's fix clears the alert without the load itself
		// flattening.
		hy("hot_doc", cfg.HotDocShare, func(v *View) map[string]float64 {
			var total float64
			byPath := make(map[string]float64)
			replicas := make(map[string]float64)
			for _, n := range v.Nodes {
				if !v.up(n) {
					continue
				}
				total += Delta(v.Store.Points(nodeobs.HeatObservations,
					metrics.Labels{"node": n}), v.From, v.To)
				for _, s := range v.Store.Select(nodeobs.HeatRequests, metrics.Labels{"node": n}) {
					if path := s.Labels["path"]; path != "" {
						byPath[path] += Delta(s.Points, v.From, v.To)
					}
				}
				for _, s := range v.Store.Select(nodeobs.HeatReplicas, metrics.Labels{"node": n}) {
					path := s.Labels["path"]
					p, ok := Latest(s.Points)
					if path == "" || !ok {
						continue
					}
					if p.V > replicas[path] {
						replicas[path] = p.V
					}
				}
			}
			if total <= 0 || total/(v.To-v.From) < cfg.HotDocMinRate {
				return map[string]float64{"": 0}
			}
			out := make(map[string]float64, len(byPath))
			for path, count := range byPath {
				r := replicas[path]
				if r < 1 {
					r = 1
				}
				out[path] = count / total / r
			}
			return out
		}),
		hy("prediction_drift", cfg.PredictionErrorSeconds, func(v *View) map[string]float64 {
			var absErr, compared float64
			for _, s := range v.Store.Select(nodeobs.SchedAbsError+"_sum", nil) {
				absErr += Delta(s.Points, v.From, v.To)
			}
			for _, s := range v.Store.Select(nodeobs.SchedCompared, nil) {
				compared += Delta(s.Points, v.From, v.To)
			}
			if compared < cfg.PredictionMinCompared {
				return map[string]float64{"": 0}
			}
			return map[string]float64{"": absErr / compared}
		}),
	}
}
