package httpd

import "sweb/internal/heat"

// heatObserve folds one fulfilled request into the document-heat sketch
// and bumps the per-path metric counters the monitor's hot_doc rule
// windows, plus the replica-set-size gauge the rule divides by — so
// replicating a hot document clears the alert without the load having to
// flatten.
func (s *Server) heatObserve(o heat.Observation, replicas int) {
	s.heat.Observe(o)
	s.nm.heatRequests.With(o.Path).Inc()
	if o.Relay {
		s.nm.heatRelays.With(o.Path).Inc()
	}
	s.nm.heatReplicas.With(o.Path).Set(float64(replicas))
}

// HeatDump snapshots the heat sketch with the node identity filled in —
// the /sweb/heat payload.
func (s *Server) HeatDump() heat.Dump {
	d := s.heat.Dump()
	d.Node = s.cfg.ID
	return d
}
