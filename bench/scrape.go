package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"time"
)

// A scrape is one text exposition (what GET /sweb/metrics returns, or a
// simulated node's registry written out) reduced to series -> value.
// Keys are the series exactly as exposed, e.g.
// `sweb_phase_seconds_sum{phase="parse"}`. The parser reads the wire
// format, not internal/metrics, so the observer stays independent of the
// observed.
type scrape map[string]float64

func parseScrape(text []byte) (scrape, int) {
	s := scrape{}
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		// The series ends at the label set's closing brace, or at the
		// first space when there are no labels (an exemplar suffix has
		// braces of its own further right).
		end := strings.IndexByte(line, ' ') - 1
		if open := strings.IndexByte(line, '{'); open >= 0 && open < end {
			end = strings.IndexByte(line, '}')
		}
		if end < 0 || end+2 > len(line) {
			continue
		}
		fields := strings.Fields(line[end+1:])
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			continue
		}
		s[line[:end+1]] += v
		lines++
	}
	return s, lines
}

// add accumulates another node's scrape: every metric below is a
// cluster-wide sum or a ratio of sums.
func (s scrape) add(o scrape) {
	for k, v := range o {
		s[k] += v
	}
}

func (s scrape) minus(o scrape) scrape {
	d := make(scrape, len(s))
	for k, v := range s {
		d[k] = v - o[k]
	}
	return d
}

// histMean is sum/count of a histogram series, scaled (1e6 for seconds
// to microseconds).
func (s scrape) histMean(name, labels string, scale float64) float64 {
	return scale * ratio(s[name+"_sum"+labels], s[name+"_count"+labels])
}

func phaseLabel(p string) string { return `{phase="` + p + `"}` }
func eventLabel(e string) string { return `{event="` + e + `"}` }

// serverLayers derives the httpd.*, cache.* and scheduler metrics from a
// counter delta over the measured window. harnessConns/harnessReqs are
// the introspection connections the observer itself opened inside the
// window, which sweb_keepalive_requests_per_conn cannot tell from load.
func serverLayers(m map[string]float64, d scrape, harnessConns, harnessReqs float64) {
	const us = 1e6
	for _, p := range []string{"parse", "analyze", "redirect", "fetch_local", "fetch_nfs", "redirect_hop"} {
		m["httpd."+p+"_us_mean"] = d.histMean("sweb_phase_seconds", phaseLabel(p), us)
	}
	m["httpd.response_us_mean"] = d.histMean("sweb_response_seconds", "", us)
	m["httpd.ttfb_us_mean"] = d.histMean("sweb_ttfb_seconds", "", us)
	// The phases of a served request; parse and analyze of requests that
	// were 302'd away are in the numerator too, so a redirect-heavy
	// workload reads a little above 1. Reported, not asserted.
	var phases float64
	for _, p := range []string{"parse", "analyze", "fetch_local", "fetch_nfs"} {
		phases += d["sweb_phase_seconds_sum"+phaseLabel(p)]
	}
	m["httpd.phase_cover"] = ratio(phases, d["sweb_response_seconds_sum"])

	// Every 302 makes the client connect a second time, so logical
	// requests are arrivals minus redirects.
	redirected := d["sweb_events_total"+eventLabel("redirected")]
	logical := d["sweb_events_total"+eventLabel("connected")] - redirected
	m["httpd.redirect_ratio"] = ratio(redirected, logical)
	m["httpd.relay_ratio"] = ratio(d["sweb_events_total"+eventLabel("fetch-nfs")], logical)
	m["httpd.refused"] = d["sweb_events_total"+eventLabel("refused")]
	dials, reused := d["sweb_upstream_dials_total"], d["sweb_upstream_reused_total"]
	m["httpd.upstream_reuse_ratio"] = ratio(reused, dials+reused)
	m["httpd.req_per_conn_mean"] = ratio(
		d["sweb_keepalive_requests_per_conn_sum"]-harnessReqs,
		d["sweb_keepalive_requests_per_conn_count"]-harnessConns)

	hits, misses := d["sweb_cache_hits_total"], d["sweb_cache_misses_total"]
	m["cache.hit_ratio"] = ratio(hits, hits+misses)
	m["cache.evictions"] = d["sweb_cache_evictions_total"]
	m["cache.singleflight_shared"] = d["sweb_cache_singleflight_shared_total"]
	m["core.pred_abs_err_ms_mean"] = d.histMean("sweb_sched_abs_error_seconds", "", 1e3)
}

// observation is everything read from outside the nodes at one instant.
type observation struct {
	metrics  scrape // summed over nodes
	series   float64
	scrapeMS float64 // mean GET /sweb/metrics time
	proc     procSample
	peakMB   float64
}

// observe scrapes every node's /sweb/metrics, each on its own connection,
// and samples every child's /proc entry.
func (c *cluster) observe() (*observation, error) {
	o := &observation{metrics: scrape{}}
	for _, n := range c.nodes {
		t0 := time.Now()
		text, err := httpGet(n.addr, "/sweb/metrics")
		if err != nil {
			return nil, err
		}
		o.scrapeMS += float64(time.Since(t0)) / 1e6 / float64(len(c.nodes))
		s, lines := parseScrape(text)
		o.metrics.add(s)
		o.series += float64(lines) / float64(len(c.nodes))
		p, err := readProc(n.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		o.proc.userS += p.userS
		o.proc.sysS += p.sysS
		o.proc.cpuS += p.cpuS
		o.proc.ctxsw += p.ctxsw
		o.proc.hwmMB += p.hwmMB
		o.peakMB = max(o.peakMB, p.hwmMB)
	}
	return o, nil
}
