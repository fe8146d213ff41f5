package httpd

import (
	"bytes"
	"encoding/json"
	"time"

	"sweb/internal/httpmsg"
	"sweb/internal/loadd"
	"sweb/internal/metrics"
	"sweb/internal/slo"
	"sweb/internal/trace"
)

// introspectPrefix guards the per-node observability endpoints. Like
// X-Sweb-Internal fetches they are served where they arrive, never
// re-scheduled: a 302 to a "less loaded" peer would answer with the wrong
// node's state.
const introspectPrefix = "/sweb/"

// StatusConfig is the slice of Config worth seeing from outside.
type StatusConfig struct {
	Policy              string  `json:"policy"`
	MaxConcurrent       int     `json:"max_concurrent"`
	FetchAttempts       int     `json:"fetch_attempts"`
	FailureLimit        int     `json:"failure_limit"`
	LoaddPeriodSeconds  float64 `json:"loadd_period_seconds"`
	LoaddTimeoutSeconds float64 `json:"loadd_timeout_seconds"`
	DocRoot             string  `json:"doc_root"`
}

// TraceStatus summarizes the node's recorder for /sweb/status: whether
// tracing is on, how much it captured, and — the silent-loss signal — how
// many events the capture limit discarded.
type TraceStatus struct {
	Enabled   bool    `json:"enabled"`
	Events    int     `json:"events"`
	Dropped   int64   `json:"dropped"`
	EpochUnix float64 `json:"epoch_unix"`
}

// CacheStatus summarizes the node's hot-file cache for /sweb/status:
// residency and the counters behind the sweb_cache_* families. The Hot
// ranking is the document-heat sketch's — so relay- and miss-heavy
// documents appear, not just cache residents; the cache itself stays a
// feeder, not a second ranking.
type CacheStatus struct {
	Enabled            bool     `json:"enabled"`
	CapacityBytes      int64    `json:"capacity_bytes"`
	UsedBytes          int64    `json:"used_bytes"`
	Files              int      `json:"files"`
	Hits               int64    `json:"hits"`
	Misses             int64    `json:"misses"`
	Evictions          int64    `json:"evictions"`
	SingleflightShared int64    `json:"singleflight_shared"`
	HitRate            float64  `json:"hit_rate"`
	Hot                []string `json:"hot,omitempty"`
}

// StatusReport is the /sweb/status payload: one node's counters, its view
// of every peer's health, the gossip time-series behind its scheduling
// decisions, and the config shaping them. The decisions themselves, with
// their cost tables and measured outcomes, are in /sweb/flight.
type StatusReport struct {
	Node          int                 `json:"node"`
	Addr          string              `json:"addr"`
	UDPAddr       string              `json:"udp_addr"`
	UptimeSeconds float64             `json:"uptime_seconds"`
	Stats         Stats               `json:"stats"`
	Cache         CacheStatus         `json:"cache"`
	Trace         TraceStatus         `json:"trace"`
	Peers         []loadd.PeerHealth  `json:"peers"`
	Gossip        []loadd.PeerHistory `json:"gossip,omitempty"`
	Config        StatusConfig        `json:"config"`
}

// cacheStatus snapshots the hot-file cache (zero-valued when disabled).
func (s *Server) cacheStatus() CacheStatus {
	c := s.cache
	if c == nil {
		return CacheStatus{}
	}
	st := c.Stats()
	return CacheStatus{
		Enabled:            true,
		CapacityBytes:      st.CapacityBytes,
		UsedBytes:          st.UsedBytes,
		Files:              st.Files,
		Hits:               st.Hits,
		Misses:             st.Misses,
		Evictions:          st.Evictions,
		SingleflightShared: st.SingleflightShared,
		HitRate:            st.HitRate(),
		Hot:                s.obs.Hot(8),
	}
}

// StatusReport snapshots the node for /sweb/status (exported for the
// cluster doctor and tests).
func (s *Server) StatusReport() StatusReport {
	return StatusReport{
		Node:          s.cfg.ID,
		Addr:          s.Addr(),
		UDPAddr:       s.UDPAddr(),
		UptimeSeconds: time.Since(s.epoch).Seconds(),
		Stats:         s.Stats(),
		Cache:         s.cacheStatus(),
		Trace: TraceStatus{
			Enabled:   s.cfg.Trace.Enabled(),
			Events:    s.cfg.Trace.Len(),
			Dropped:   s.cfg.Trace.Dropped(),
			EpochUnix: float64(s.epoch.UnixNano()) / 1e9,
		},
		Peers:  s.table.Health(s.nowSec()),
		Gossip: s.table.HistorySnapshot(),
		Config: StatusConfig{
			Policy:              s.cfg.Policy.Name(),
			MaxConcurrent:       s.cfg.MaxConcurrent,
			FetchAttempts:       s.cfg.FetchAttempts,
			FailureLimit:        s.cfg.FailureLimit,
			LoaddPeriodSeconds:  s.cfg.LoaddPeriod.Seconds(),
			LoaddTimeoutSeconds: s.cfg.LoaddTimeout.Seconds(),
			DocRoot:             s.cfg.DocRoot,
		},
	}
}

// Registry exposes the node's metric registry (tests, embedding).
func (s *Server) Registry() *metrics.Registry { return s.obs.Registry() }

// SLOReport evaluates the node's configured objectives against its own
// cumulative registry: the budget spent since the node started.
func (s *Server) SLOReport() slo.Report {
	var buf bytes.Buffer
	_ = s.obs.Registry().WriteText(&buf)
	samples, err := metrics.ParseText(&buf)
	if err != nil {
		samples = nil
	}
	objs := s.cfg.SLO
	if len(objs) == 0 {
		objs = slo.DefaultObjectives()
	}
	uptime := time.Since(s.epoch).Seconds()
	return slo.EvaluateSamples(samples, objs, nodeName(s.cfg.ID), uptime, s.nowSec())
}

// TraceDump is the /sweb/trace payload: one node's raw event stream plus
// the epoch that anchors its relative timestamps to the wall clock, which
// is exactly what trace.Collector.Add needs to stitch streams cross-node.
type TraceDump struct {
	Node      int           `json:"node"`
	Enabled   bool          `json:"enabled"`
	EpochUnix float64       `json:"epoch_unix"`
	Dropped   int64         `json:"dropped"`
	Events    []trace.Event `json:"events"`
}

// TraceDump snapshots the recorder for /sweb/trace (exported for the
// in-process scraper and tests).
func (s *Server) TraceDump() TraceDump {
	return TraceDump{
		Node:      s.cfg.ID,
		Enabled:   s.cfg.Trace.Enabled(),
		EpochUnix: float64(s.epoch.UnixNano()) / 1e9,
		Dropped:   s.cfg.Trace.Dropped(),
		Events:    s.cfg.Trace.Events(),
	}
}

// serveIntrospection answers an introspection request on the main listener.
func (s *Server) serveIntrospection(rc *reqConn, req *httpmsg.Request) {
	code, ctype, body := s.introspection(req)
	rc.reply(httpmsg.ResponseHead{Code: code, ContentType: ctype}, body)
}

// introspection builds the answer to one /sweb/ endpoint: its status,
// content type ("" for the default) and body.
func (s *Server) introspection(req *httpmsg.Request) (code int, ctype string, body []byte) {
	var v any
	indent := false
	switch req.Path {
	case "/sweb/status":
		v, indent = s.StatusReport(), true
	case "/sweb/trace":
		v = s.TraceDump()
	case "/sweb/flight":
		v = s.FlightDump()
	case "/sweb/heat":
		v = s.HeatDump()
	case "/sweb/slo":
		v, indent = s.SLOReport(), true
	case "/sweb/snapshot":
		if s.cfg.SnapshotDir == "" {
			return errorPage(httpmsg.StatusServiceUnavailable, "No snapshot directory configured (-snapshot-dir).")
		}
		bundle, err := s.WriteSnapshot("manual")
		if err != nil {
			return errorPage(httpmsg.StatusInternalServerError, err.Error())
		}
		v = map[string]string{"bundle": bundle}
	case "/sweb/replicate":
		return s.replicate(req)
	case "/sweb/metrics":
		var buf bytes.Buffer
		if err := s.obs.Registry().WriteText(&buf); err != nil {
			return errorPage(httpmsg.StatusInternalServerError, err.Error())
		}
		body = buf.Bytes()
		// WriteText newline-terminates every line, but guarantee the
		// trailing newline even for an empty registry: parsers in the
		// exposition-format lineage reject truncated final lines.
		if len(body) == 0 || body[len(body)-1] != '\n' {
			body = append(body, '\n')
		}
		return httpmsg.StatusOK, metrics.ContentType, body
	default:
		return errorPage(httpmsg.StatusNotFound, "No such introspection endpoint.")
	}
	var err error
	if indent {
		body, err = json.MarshalIndent(v, "", "  ")
	} else {
		body, err = json.Marshal(v)
	}
	if err != nil {
		return errorPage(httpmsg.StatusInternalServerError, err.Error())
	}
	return httpmsg.StatusOK, "application/json", append(body, '\n')
}

// errorPage is an introspection error: its status and its page.
func errorPage(code int, text string) (int, string, []byte) {
	return code, "", httpmsg.ErrorBody(code, text)
}
