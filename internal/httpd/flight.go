package httpd

import (
	"bytes"
	"encoding/json"
	"errors"
	"sort"
	"strconv"
	"time"

	"sweb/internal/flight"
	"sweb/internal/heat"
)

// flightTraceTail bounds the trace dump written into snapshot bundles: the
// recorder can hold up to a million events, far more than a postmortem
// needs and enough to dominate the bundle size.
const flightTraceTail = 4096

// FlightDump snapshots the flight rings with the node identity and epoch
// filled in — the /sweb/flight payload.
func (s *Server) FlightDump() flight.Dump {
	d := s.obs.FlightDump()
	d.EpochUnix = float64(s.epoch.UnixNano()) / 1e9
	return d
}

// HeatDump snapshots the heat sketch with the node identity filled in —
// the /sweb/heat payload.
func (s *Server) HeatDump() heat.Dump { return s.obs.HeatDump() }

// ConnState is one tracked connection's row in the conn-table snapshot.
type ConnState struct {
	ID         int64   `json:"id"`
	Remote     string  `json:"remote"`
	AgeSeconds float64 `json:"age_seconds"`
	Served     int64   `json:"served"`
	Active     bool    `json:"active"`
}

// ConnTable snapshots every open client connection, ordered by id — the
// "which conn wedged" view a snapshot bundle preserves. Remote addresses
// are formatted here, not at accept.
func (s *Server) ConnTable() []ConnState {
	now := time.Now()
	s.connMu.Lock()
	out := make([]ConnState, 0, len(s.conns))
	for c, ci := range s.conns {
		remote := ""
		if addr := c.RemoteAddr(); addr != nil {
			remote = addr.String()
		}
		out = append(out, ConnState{
			ID:         ci.id,
			Remote:     remote,
			AgeSeconds: now.Sub(ci.opened).Seconds(),
			Served:     ci.served.Load(),
			Active:     ci.active.Load(),
		})
	}
	s.connMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// connCounts splits the tracked connections into active (a request
// mid-lifecycle) and idle (parked between requests) — the per-state view
// the conflated sweb_inflight gauge could not give.
func (s *Server) connCounts() (active, idle int) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	for _, ci := range s.conns {
		if ci.active.Load() {
			active++
		} else {
			idle++
		}
	}
	return active, idle
}

// SnapshotState gathers everything this node contributes to a diagnostic
// bundle: its metrics exposition, status report, a bounded trace tail,
// the flight rings, and the conn table.
func (s *Server) SnapshotState() flight.NodeState {
	ns := flight.NodeState{Name: nodeName(s.cfg.ID), Flight: s.FlightDump(),
		Heat: s.HeatDump(), Conns: s.ConnTable()}
	var buf bytes.Buffer
	if err := s.obs.Registry().WriteText(&buf); err == nil {
		ns.Metrics = append([]byte(nil), buf.Bytes()...)
	}
	if b, err := json.MarshalIndent(s.StatusReport(), "", "  "); err == nil {
		ns.Status = b
	}
	if s.cfg.Trace.Enabled() {
		td := s.TraceDump()
		td.Events = s.cfg.Trace.Tail(flightTraceTail)
		if b, err := json.Marshal(td); err == nil {
			ns.Trace = b
		}
	}
	return ns
}

func nodeName(id int) string { return "node" + strconv.Itoa(id) }

// WriteSnapshot writes a single-node diagnostic bundle under the
// configured SnapshotDir — the /sweb/snapshot and swebd on-demand path.
// Cross-node bundles are the cluster harness's job (live.Cluster).
func (s *Server) WriteSnapshot(reason string) (string, error) {
	if s.cfg.SnapshotDir == "" {
		return "", errors.New("httpd: no snapshot directory configured")
	}
	return flight.Snapshot(flight.SnapshotOptions{Dir: s.cfg.SnapshotDir, Reason: reason},
		[]flight.NodeState{s.SnapshotState()})
}

// Closed reports whether the server has been shut down.
func (s *Server) Closed() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}
