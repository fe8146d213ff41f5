package main

import (
	"math"
	"testing"
)

const exposition = `# HELP sweb_events_total request lifecycle events by trace kind
# TYPE sweb_events_total counter
sweb_events_total{event="connected"} 150
sweb_events_total{event="redirected"} 50
sweb_events_total{event="fetch-nfs"} 10
sweb_phase_seconds_bucket{phase="parse",le="0.001"} 150 # {trace_id="abc"} 0.0004 1786000000.5
sweb_phase_seconds_sum{phase="parse"} 0.003
sweb_phase_seconds_count{phase="parse"} 150
sweb_response_seconds_sum 0.5
sweb_response_seconds_count 100
sweb_cache_hits_total 90
sweb_cache_misses_total 10
sweb_keepalive_requests_per_conn_sum 102
sweb_keepalive_requests_per_conn_count 3
sweb_upstream_dials_total 1
sweb_upstream_reused_total 9
sweb_build_info{go_version="go1.24.0"} 1
`

func TestParseScrapeAndServerLayers(t *testing.T) {
	s, lines := parseScrape([]byte(exposition))
	if lines != 15 {
		t.Errorf("%d sample lines, want 15", lines)
	}
	for key, want := range map[string]float64{
		`sweb_events_total{event="connected"}`:                150,
		`sweb_phase_seconds_bucket{phase="parse",le="0.001"}`: 150, // exemplar suffix ignored
		`sweb_response_seconds_sum`:                           0.5,
		`sweb_build_info{go_version="go1.24.0"}`:              1,
	} {
		if s[key] != want {
			t.Errorf("%s = %v, want %v", key, s[key], want)
		}
	}
	// Two nodes add up; a later scrape minus an earlier one is the window.
	two := scrape{}
	two.add(s)
	two.add(s)
	d := two.minus(s)
	m := map[string]float64{}
	serverLayers(m, d, 1, 2)
	for name, want := range map[string]float64{
		"httpd.parse_us_mean":        20,
		"httpd.response_us_mean":     5000,
		"httpd.redirect_ratio":       0.5, // 50 of the 100 logical requests were 302'd once
		"httpd.relay_ratio":          0.1,
		"httpd.fetch_nfs_us_mean":    0, // a layer the window never touched reads 0, not NaN
		"cache.hit_ratio":            0.9,
		"httpd.upstream_reuse_ratio": 0.9,
		"httpd.req_per_conn_mean":    50, // minus the observer's own connection
		"httpd.phase_cover":          0.003 / 0.5,
	} {
		if got := m[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
