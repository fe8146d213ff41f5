package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"sweb/internal/simsrv"
	"sweb/internal/workload"
)

const (
	liveNodes = 2
	// setupRepeats is how many times an untraced run sets the cluster up;
	// setup_s is the median, the last cluster is the one measured.
	setupRepeats = 3
	settle       = time.Second
)

// setUp materializes the corpus, starts the nodes and warms them: what
// setup_s times. The docs' CRCs are filled in as a side effect.
func setUp(root, bin string, def liveDef, str *stream, seed int64) (*cluster, float64, error) {
	t0 := time.Now()
	cl, err := startCluster(root, bin, str.Docs, liveNodes, uint64(seed), def.flags)
	if err != nil {
		return nil, 0, err
	}
	if err := warm(cl.addrs(), str, def.connClose); err != nil {
		return nil, 0, err
	}
	return cl, time.Since(t0).Seconds(), nil
}

func runLive(root string, def liveDef, seed int64, seconds int, traced bool, outDir string) (*result, error) {
	bin, err := buildSwebd(root)
	if err != nil {
		return nil, err
	}
	res := newResult()
	str := def.stream(seed)
	workers := generatorProcs()

	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var cl *cluster
	var setups []float64
	for i := 0; i < repeats; i++ {
		if cl != nil {
			if err := cl.stop(); err != nil {
				res.problemf("%v", err)
			}
		}
		var s float64
		if cl, s, err = setUp(root, bin, def, str, seed); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}

	dur := time.Duration(seconds) * time.Second
	if traced {
		// Untraced window, traced window, then the replay: 2/5 each for
		// the windows keeps the whole run near -seconds.
		dur = dur * 2 / 5
	}
	// A second of the workload itself, unmeasured: the warm pass filled
	// the caches, this lets heaps, socket buffers and the scheduler's load
	// view reach the state the window will hold them in.
	if s := runWindow(cl.addrs(), str, def, workers, settle, time.Time{}); s.failed > 0 {
		return nil, fmt.Errorf("settling: %d of %d requests failed: %w", s.failed, s.attempted, s.firstErr)
	}
	before, err := cl.observe()
	if err != nil {
		return nil, err
	}
	win := runWindow(cl.addrs(), str, def, workers, dur, time.Time{})
	after, err := cl.observe()
	if err != nil {
		return nil, err
	}
	if err := res.absorb(win, workers); err != nil {
		return nil, err
	}
	cpuS := after.proc.cpuS - before.proc.cpuS
	tail := tailRank(len(win.latMS))
	res.notef("%s: %d swebd (GOMAXPROCS=1 each, flags %v), %d workers, window %.2f s, %d completions; p99 %.3f ms (p%.0f)",
		def.name, liveNodes, def.flags, workers, win.wall, win.completions, percentile(win.latMS, tail), tail)

	if !traced {
		m := res.metrics
		m["rps"] = win.rps()
		m["mbps"] = ratio(float64(win.bytes)/1e6, win.wall)
		m["p50_ms"] = percentile(win.latMS, 50)
		m["ttfb_p50_ms"] = percentile(win.ttfbMS, 50)
		m["srv_cpu_ms_per_req"] = ratio(cpuS*1e3, float64(win.completions))
		m["srv_rss_mb"] = after.proc.hwmMB
		m["setup_s"] = median(setups)
		res.notef("setup_s is the median of %d set-ups: %v", len(setups), setups)
		if def.openRate > 0 {
			res.notef("open loop at %.0f req/s: started late p99 %.3f ms, max %.3f ms",
				def.openRate, percentile(win.lateMS, 99), percentile(win.lateMS, 100))
		}
		if err := cl.stop(); err != nil {
			res.problemf("%v", err)
		}
		return res, nil
	}

	// Traced window: the same traffic with the generator keeping spans.
	epoch := time.Now()
	twin := runWindow(cl.addrs(), str, def, workers, dur, epoch)
	final, err := cl.observe()
	if err != nil {
		return nil, err
	}
	if err := res.absorb(twin, workers); err != nil {
		return nil, err
	}

	m := res.metrics
	d := final.metrics.minus(after.metrics)
	// Inside the window the observer ended one connection per node: the
	// metrics GET of the "after" scrape, one request each.
	serverLayers(m, d, liveNodes, liveNodes)
	m["metrics.series"] = final.series
	m["metrics.scrape_ms"] = final.scrapeMS
	m["swebd.cpu_user_s"] = final.proc.userS - after.proc.userS
	m["swebd.cpu_sys_s"] = final.proc.sysS - after.proc.sysS
	m["swebd.ctxsw_per_req"] = ratio(final.proc.ctxsw-after.proc.ctxsw, float64(twin.completions))
	m["swebd.rss_peak_mb"] = final.peakMB
	m["swebd.gc_pause_ms"] = d["sweb_gc_pause_seconds_total"] * 1e3
	m["swebd.goroutines"] = final.metrics["sweb_goroutines"]
	var startMS float64
	for _, n := range cl.nodes {
		startMS += n.startMS / liveNodes
	}
	m["swebd.start_ms"] = startMS

	sum := summarizeSpans(twin.spans)
	for _, name := range []string{"connect", "write", "wait", "body", "hop"} {
		m["client."+name+"_us_p50"] = sum[name].P50
	}
	m["client.self_us_p50"] = sum["request"].SelfP50
	m["client.late_ms_p99"] = percentile(twin.lateMS, 99)
	m["client.achieved_rps"] = twin.rps()
	m["client.conns_opened"] = float64(twin.conns)
	m["client.conns_high_water"] = float64(twin.highWater)
	m["client.p99_ms"] = percentile(twin.latMS, tailRank(len(twin.latMS)))
	p50us := percentile(twin.latMS, 50) * 1e3
	m["client.unaccounted_us"] = p50us - m["httpd.response_us_mean"]
	if def.openRate > 0 {
		// A paced loop completes the same count either way; the cost of
		// tracing shows in latency.
		base := percentile(win.latMS, 50)
		m["client.trace_overhead_pct"] = 100 * ratio(percentile(twin.latMS, 50)-base, base)
	} else {
		m["client.trace_overhead_pct"] = 100 * ratio(win.rps()-twin.rps(), win.rps())
	}
	m["client.fail_ratio"] = ratio(float64(res.failed), float64(res.attempted))

	if err := cl.stop(); err != nil {
		res.problemf("%v", err)
	}

	// The same corpus and request stream on the other substrate: a short
	// burst through a 2-node simulated cluster gives the des.* and
	// simsrv.* rows for this workload's traffic shape.
	log := newSpanLog(epoch, workers, workers+1)
	policy := simsrv.PolicySWEB
	if def.name == wlRedirectSerial {
		policy = simsrv.PolicyFileLocality
	}
	leg := simLeg{
		span: "des_leg", docs: str.Docs, nodes: liveNodes, policy: policy,
		burst: workload.Burst{RPS: def.simRPS, DurationSeconds: 30, Jitter: true},
		pick:  func(i int, _ *rand.Rand) string { return str.Docs[str.At(i).Doc].Path },
		seed:  seed,
	}
	lr, err := leg.run(log, 0, 0)
	if err != nil {
		return nil, err
	}
	desLayers(m, []*legResult{lr})

	replayLayers(m, str, def.cacheBytes, log)

	spans := append(twin.spans, log.spans...)
	path, err := writeSpans(outDir, def.name, spans)
	if err != nil {
		return nil, err
	}
	def.checkShape(res, m, str.nonOwnerShare(twin.attempted))
	res.notef("traced: untraced %.0f rps / p50 %.3f ms, traced %.0f rps / p50 %.3f ms; %d spans in %s",
		win.rps(), percentile(win.latMS, 50), twin.rps(), percentile(twin.latMS, 50), len(spans), path)
	res.spanSummary(spans)
	return res, nil
}

// absorb counts a window's requests into the run and records what makes
// the run incorrect: a failed request, or more connections open at once
// than the generator has workers. A window without a single completion has
// nothing to measure and stops the run.
func (res *result) absorb(w *windowResult, workers int) error {
	res.attempted += w.attempted
	res.failed += w.failed
	if w.firstErr != nil {
		res.problemf("first failure: %v", w.firstErr)
	}
	if w.highWater > workers {
		res.problemf("generator held %d connections at once, more than its %d workers", w.highWater, workers)
	}
	if w.completions == 0 {
		return fmt.Errorf("window completed none of %d requests: %v", w.attempted, w.firstErr)
	}
	return nil
}

// checkShape holds a traced run to what the workload was built for: if
// hot_small stops hitting the cache or large_cold stops missing it, the
// numbers still print but describe a different experiment, and the run
// is marked incorrect.
func (def liveDef) checkShape(res *result, m map[string]float64, nonOwnerShare float64) {
	hit, relay, redirect := m["cache.hit_ratio"], m["httpd.relay_ratio"], m["httpd.redirect_ratio"]
	switch def.name {
	case wlHotSmall:
		if hit < 0.99 || relay > 0.01 {
			res.problemf("hot_small must be all cache hits: hit ratio %.4f, relay ratio %.4f", hit, relay)
		}
	case wlLargeCold:
		if hit >= 0.5 || relay+redirect <= 0.2 {
			res.problemf("large_cold must miss and move bytes between nodes: hit ratio %.4f, relay+redirect %.4f", hit, relay+redirect)
		}
	case wlRedirectSerial:
		if math.Abs(redirect-nonOwnerShare) > 0.02 {
			res.problemf("redirect_serial: redirect ratio %.4f, but %.4f of the stream arrives at a non-owner", redirect, nonOwnerShare)
		}
		if late := m["client.late_ms_p99"]; late > 5 {
			res.problemf("redirect_serial: the generator started requests %.3f ms late at p99; the schedule was not kept", late)
		}
	}
}
