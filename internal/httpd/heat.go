package httpd

import "sweb/internal/heat"

// heatObserve folds one fulfilled request into the document-heat sketch
// and bumps the per-path metric counters the monitor's hot_doc rule
// windows, plus the replica-set-size gauge the rule divides by — so
// replicating a hot document clears the alert without the load having to
// flatten. Nil-safe via the sketch: with heat off this is a nil check.
func (s *Server) heatObserve(o heat.Observation, replicas int) {
	if s.heat == nil {
		return
	}
	s.heat.Observe(o)
	s.nm.heatRequests.With(o.Path).Inc()
	if o.Relay {
		s.nm.heatRelays.With(o.Path).Inc()
	}
	s.nm.heatReplicas.With(o.Path).Set(float64(replicas))
}

// Heat exposes the node's document-heat sketch (nil when disabled) for
// tests and in-process scrapers.
func (s *Server) Heat() *heat.Sketch { return s.heat }

// HeatDump snapshots the heat sketch with the node identity filled in —
// the /sweb/heat payload.
func (s *Server) HeatDump() heat.Dump {
	d := s.heat.Dump()
	d.Node = s.cfg.ID
	return d
}

// hotPaths is the ranking /sweb/status surfaces: the heat sketch when
// enabled (so relay- and miss-heavy documents appear, not just cache
// residents), else the cache's LRU-derived view.
func (s *Server) hotPaths(n int) []string {
	if s.heat != nil {
		return s.heat.Hot(n)
	}
	if s.cache != nil {
		return s.cache.Hot(n)
	}
	return nil
}
