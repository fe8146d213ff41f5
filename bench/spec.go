package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// The benchmark's contract with its driver: workload names, metric names,
// units, directions and regression bounds. BENCHMARK.json at the repo root
// is this table rendered by `-print-spec`; TestSpecMatchesBenchmarkJSON
// keeps the two identical, so a name exists in exactly one place.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []e2eSpec      `json:"end_to_end"`
	PerLayer   []layerSpec    `json:"per_layer"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// Workload names are fixed; later issues cite them.
const (
	wlHotSmall       = "hot_small"
	wlLargeCold      = "large_cold"
	wlRedirectSerial = "redirect_serial"
	wlSimMeiko       = "sim_meiko"
)

var spec = benchSpec{
	Command:    []string{"go", "-C", "bench", "run", "."},
	Paths:      []string{"bench"},
	RunSeconds: 20,
	Workloads: []workloadSpec{
		{wlHotSmall, "256 x 1 KiB docs, all cache hits, keep-alive closed loop: per-request cost (parse, header write, Choose, cache lookup, telemetry sinks) is all the work; bytes moved are negligible"},
		{wlLargeCold, "64 x 1.5 MiB docs against a 16 MiB cache, every request at the non-owner, keep-alive closed loop: disk read, body streaming, relay and cache insert/evict do the work; per-request overhead is under 1%"},
		{wlRedirectSerial, "512 mixed-size docs, Zipf picks at the non-owner under policy fl, one connection per request, 10% conditional GETs, open loop at 400 req/s: accept, connection set-up, the 302 hop, cache churn, 304s"},
		{wlSimMeiko, "in-process DES: 6-node Meiko, SWEB policy, a 1 KiB @ 96 rps and a 1.5 MiB @ 16 rps burst replicated over 12 arrival patterns; des heap, PSResource and simsrv do the work, no socket is touched"},
	},
	// Bounds are set by the sandbox, not by the benchmark's resolution: on
	// the 2-vCPU VM this was built on a pure ALU loop scatters by 20% from
	// one half second to the next, and ten 20 s runs of any workload by
	// 5-20% (README, "Spread"). A bound has to clear that or the driver
	// cannot tell a regression from the neighbours.
	EndToEnd: []e2eSpec{
		{"rps", "1/s", higher, 0.25},
		{"mbps", "MB/s", higher, 0.25},
		{"p50_ms", "ms", lower, 0.25},
		{"ttfb_p50_ms", "ms", lower, 0.25},
		{"srv_cpu_ms_per_req", "ms", lower, 0.25},
		{"srv_rss_mb", "MB", lower, 0.20},
		{"setup_s", "s", lower, 0.25},
	},
	PerLayer: []layerSpec{
		{"client.connect_us_p50", "us", lower},
		{"client.write_us_p50", "us", lower},
		{"client.wait_us_p50", "us", lower},
		{"client.body_us_p50", "us", lower},
		{"client.hop_us_p50", "us", lower},
		{"client.self_us_p50", "us", lower},
		{"client.p99_ms", "ms", lower},
		{"client.late_ms_p99", "ms", lower},
		{"client.achieved_rps", "1/s", higher},
		{"client.conns_opened", "count", lower},
		{"client.conns_high_water", "count", lower},
		{"client.unaccounted_us", "us", lower},
		{"client.trace_overhead_pct", "%", lower},
		{"client.fail_ratio", "ratio", lower},

		{"httpd.parse_us_mean", "us", lower},
		{"httpd.analyze_us_mean", "us", lower},
		{"httpd.redirect_us_mean", "us", lower},
		{"httpd.fetch_local_us_mean", "us", lower},
		{"httpd.fetch_nfs_us_mean", "us", lower},
		{"httpd.redirect_hop_us_mean", "us", lower},
		{"httpd.response_us_mean", "us", lower},
		{"httpd.ttfb_us_mean", "us", lower},
		{"httpd.phase_cover", "ratio", higher},
		{"httpd.redirect_ratio", "ratio", lower},
		{"httpd.relay_ratio", "ratio", lower},
		{"httpd.refused", "count", lower},
		{"httpd.upstream_reuse_ratio", "ratio", higher},
		{"httpd.req_per_conn_mean", "count", higher},

		{"cache.hit_ratio", "ratio", higher},
		{"cache.evictions", "count", lower},
		{"cache.singleflight_shared", "count", higher},
		{"cache.lookup_ns", "ns", lower},
		{"cache.lookup_allocs", "count", lower},
		{"cache.fetch_fill_ns", "ns", lower},

		{"httpmsg.read_request_ns", "ns", lower},
		{"httpmsg.read_request_allocs", "count", lower},
		{"httpmsg.write_header_ns", "ns", lower},
		{"httpmsg.write_header_allocs", "count", lower},
		{"httpmsg.read_response_ns", "ns", lower},
		{"httpmsg.copy_body_mbps", "MB/s", higher},
		{"httpmsg.chunked_mbps", "MB/s", higher},

		{"core.choose_ns", "ns", lower},
		{"core.choose_allocs", "count", lower},
		{"core.choose6_ns", "ns", lower},
		{"core.choose6_allocs", "count", lower},
		{"core.rank_sources_ns", "ns", lower},
		{"core.pred_abs_err_ms_mean", "ms", lower},

		{"oracle.characterize_ns", "ns", lower},
		{"storage.lookup_ns", "ns", lower},
		{"loadd.snapshot_ns", "ns", lower},
		{"loadd.codec_ns", "ns", lower},

		{"metrics.observe_ns", "ns", lower},
		{"metrics.labelled_inc_ns", "ns", lower},
		{"metrics.labelled_inc_allocs", "count", lower},
		{"metrics.write_text_us", "us", lower},
		{"metrics.series", "count", lower},
		{"metrics.scrape_ms", "ms", lower},

		{"heat.observe_ns", "ns", lower},
		{"heat.observe_allocs", "count", lower},
		{"flight.add_ns", "ns", lower},
		{"flight.add_allocs", "count", lower},

		{"swebd.cpu_user_s", "s", lower},
		{"swebd.cpu_sys_s", "s", lower},
		{"swebd.ctxsw_per_req", "count", lower},
		{"swebd.rss_peak_mb", "MB", lower},
		{"swebd.gc_pause_ms", "ms", lower},
		{"swebd.goroutines", "count", lower},
		{"swebd.start_ms", "ms", lower},

		{"des.events_fired", "count", lower},
		{"des.events_per_s", "1/s", higher},
		{"des.schedule_fire_ns", "ns", lower},
		{"des.schedule_fire_allocs", "count", lower},
		{"des.ps_submit_ns", "ns", lower},

		{"simsrv.allocs_per_req", "count", lower},
		{"simsrv.alloc_mb", "MB", lower},
		{"simsrv.drop_ratio", "ratio", lower},
		{"simsrv.mean_response_s", "s", lower},
		{"workload.generate_ms", "ms", lower},
	},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// validate checks a spec against the limits the driver enforces before
// a single run, so a bad edit fails in `go test`, not in the driver.
func (s benchSpec) validate() error {
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("spec: %d workloads, want 2..8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("spec: %d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("spec: %d per-layer metrics, want 1..128", n)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("spec: run_seconds %d outside 1..60", s.RunSeconds)
	}
	if n := len(s.Command); n < 1 || n > 32 {
		return fmt.Errorf("spec: command has %d words, want 1..32", n)
	}
	if n := len(s.Paths); n < 1 || n > 16 {
		return fmt.Errorf("spec: %d paths, want 1..16", n)
	}
	for _, p := range s.Paths {
		if !pathRE.MatchString(p) || p[0] == '/' {
			return fmt.Errorf("spec: bad path %q", p)
		}
	}
	seen := map[string]bool{}
	name := func(kind, n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("spec: %s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, n)
		}
		if seen[n] {
			return fmt.Errorf("spec: name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	metric := func(n, unit, better string) error {
		if err := name("metric", n); err != nil {
			return err
		}
		if !unitRE.MatchString(unit) {
			return fmt.Errorf("spec: %s: bad unit %q", n, unit)
		}
		if better != lower && better != higher {
			return fmt.Errorf("spec: %s: better is %q", n, better)
		}
		return nil
	}
	for _, w := range s.Workloads {
		if err := name("workload", w.Name); err != nil {
			return err
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			return fmt.Errorf("spec: workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	haveSetup := false
	for _, m := range s.EndToEnd {
		if err := metric(m.Name, m.Unit, m.Better); err != nil {
			return err
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("spec: %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			haveSetup = m.Unit == "s" && m.Better == lower
		}
	}
	if !haveSetup {
		return fmt.Errorf("spec: end-to-end metrics need setup_s in s, lower is better")
	}
	for _, m := range s.PerLayer {
		if err := metric(m.Name, m.Unit, m.Better); err != nil {
			return err
		}
	}
	return nil
}

func (s benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// loadSpec reads BENCHMARK.json from the repo root; -compare and -repeat
// take directions and bounds from the committed file, not from the table
// compiled into whichever binary happens to run them.
func loadSpec(root string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, s.validate()
}
