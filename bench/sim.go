package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"syscall"
	"time"

	"sweb/internal/simsrv"
	"sweb/internal/storage"
	"sweb/internal/workload"
)

// The second substrate: the discrete-event simulator, driven in-process.
// No socket is touched; des, simsrv and their telemetry do all the work.

// simLeg is one burst against one freshly built simulated cluster.
type simLeg struct {
	span   string // name of the RunSchedule span
	docs   []doc
	nodes  int
	policy string
	burst  workload.Burst
	// pick chooses the i-th request's document; nil draws uniformly from
	// the leg's corpus with the leg's seeded rng, as the paper's bursts do.
	pick workload.Picker
	seed int64
}

// legDigest is what must repeat bit for bit when the same leg is
// simulated again: the DES is deterministic, so any difference is a bug.
type legDigest struct {
	events, offered, completed, dropped int64
	meanResp                            uint64 // float64 bits
}

type legResult struct {
	setup, gen, build, run time.Duration
	digest                 legDigest
	arrivals               []workload.Arrival
	cluster                *simsrv.Cluster
	mallocs, allocBytes    uint64 // around RunSchedule; traced runs only
}

func (r *legResult) meanResponse() float64 { return math.Float64frombits(r.digest.meanResp) }

// run builds the leg's store, generates its arrivals, builds the cluster
// and runs the schedule, timing each step. With a log it records a span
// per step under parent and counts allocations around RunSchedule.
func (l simLeg) run(log *spanLog, parent, trace int64) (*legResult, error) {
	res := &legResult{}
	t0 := time.Now()
	store := storage.NewStore(l.nodes)
	paths := make([]string, len(l.docs))
	for i, d := range l.docs {
		if err := store.Add(storage.File{Path: d.Path, Size: d.Size, Owner: d.Owner}); err != nil {
			return nil, err
		}
		paths[i] = d.Path
	}
	pick := l.pick
	if pick == nil {
		pick = workload.UniformPicker(paths)
	}
	arrivals, err := l.burst.Generate(pick, nil, rand.New(rand.NewSource(l.seed)))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	cfg := simsrv.MeikoConfig(l.nodes, store)
	cfg.Policy = l.policy
	cfg.Seed = l.seed
	c, err := simsrv.New(cfg)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	var m0, m1 runtime.MemStats
	if log != nil {
		runtime.ReadMemStats(&m0)
		t2 = time.Now()
	}
	rr := c.RunSchedule(arrivals)
	t3 := time.Now()
	if log != nil {
		runtime.ReadMemStats(&m1)
		res.mallocs, res.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		log.add(parent, trace, "generate", t0, t1)
		log.add(parent, trace, "new", t1, t2)
		log.add(parent, trace, l.span, t2, t3)
	}
	res.gen, res.build, res.run = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	res.setup = res.gen + res.build
	res.arrivals, res.cluster = arrivals, c
	res.digest = legDigest{
		events:    c.Sim.EventsFired(),
		offered:   rr.Offered,
		completed: rr.Completed,
		dropped:   rr.Dropped(),
		meanResp:  math.Float64bits(rr.Response.Mean()),
	}
	if rr.Offered != int64(l.burst.Total()) || rr.Completed+rr.Dropped() != rr.Offered {
		return nil, fmt.Errorf("sim leg %s: offered %d of %d, completed %d + dropped %d: requests were lost",
			l.span, rr.Offered, l.burst.Total(), rr.Completed, rr.Dropped())
	}
	return res, nil
}

// scrapeSim writes every simulated node's registry out as text and parses
// it back: the in-process equivalent of GET /sweb/metrics on each node.
func scrapeSim(c *simsrv.Cluster) (s scrape, series, writeMS float64, err error) {
	s = scrape{}
	var buf bytes.Buffer
	for x := 0; x < c.Nodes(); x++ {
		buf.Reset()
		t0 := time.Now()
		if err := c.Registry(x).WriteText(&buf); err != nil {
			return nil, 0, 0, err
		}
		writeMS += float64(time.Since(t0)) / 1e6 / float64(c.Nodes())
		one, lines := parseScrape(buf.Bytes())
		s.add(one)
		series += float64(lines) / float64(c.Nodes())
	}
	return s, series, writeMS, nil
}

// desLayers fills the des.*, simsrv.* and workload.* metrics from legs
// that ran with a span log.
func desLayers(m map[string]float64, legs []*legResult) {
	var events, offered, dropped, mallocs, allocBytes float64
	var run, gen time.Duration
	var respSum, completed float64
	for _, l := range legs {
		events += float64(l.digest.events)
		offered += float64(l.digest.offered)
		dropped += float64(l.digest.dropped)
		completed += float64(l.digest.completed)
		respSum += l.meanResponse() * float64(l.digest.completed)
		mallocs += float64(l.mallocs)
		allocBytes += float64(l.allocBytes)
		run += l.run
		gen += l.gen
	}
	m["des.events_fired"] = events
	m["des.events_per_s"] = ratio(events, run.Seconds())
	m["simsrv.allocs_per_req"] = ratio(mallocs, offered)
	m["simsrv.alloc_mb"] = allocBytes / 1e6
	m["simsrv.drop_ratio"] = ratio(dropped, offered)
	m["simsrv.mean_response_s"] = ratio(respSum, completed)
	m["workload.generate_ms"] = float64(gen) / 1e6
}

// simPatterns is how many differently seeded arrival patterns a run
// cycles through. How much work a burst is depends on how its arrivals
// happen to clump (the 1.5 MiB leg runs the disks at 80%), by +-15% from
// one seed to the next; a run that averages a dozen patterns moves a
// quarter as much with the seed as a run that repeats one.
const simPatterns = 12

// meikoLegs is sim_meiko's fixed experiment, under the k-th arrival
// pattern of the run's seed: the paper's two file sizes as two bursts on a
// 6-node Meiko under the SWEB policy.
func meikoLegs(seed int64, k int) []simLeg {
	sub := int64(mix(uint64(seed), uint64(k)) >> 1)
	return []simLeg{
		{span: "run_small", docs: uniformDocs("s", 256, 1<<10, 6), nodes: 6, policy: simsrv.PolicySWEB,
			burst: workload.Burst{RPS: 96, DurationSeconds: 60, Jitter: true}, seed: sub},
		{span: "run_large", docs: uniformDocs("b", 64, 3<<19, 6), nodes: 6, policy: simsrv.PolicySWEB,
			burst: workload.Burst{RPS: 16, DurationSeconds: 60, Jitter: true}, seed: sub + 1},
	}
}

// simRep is one replication of the experiment: every leg once.
type simRep struct {
	legs                []*legResult
	total, first, setup time.Duration // whole rep; start to first leg's results; store+generate+New
}

// simPhase replicates the experiment, one arrival pattern after another
// in whole cycles of simPatterns, until dur has passed, and checks every
// replication against the first one of the same pattern.
type simPhase struct {
	reps      []simRep
	attempted int
	failed    int
	cpuS      float64   // this process's user+system time over the phase
	gapMS     []float64 // between one replication's end and the next one's start
}

func selfCPU() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func runSimPhase(seed int64, dur time.Duration, log *spanLog) (*simPhase, error) {
	ph := &simPhase{}
	var want [simPatterns][]legDigest
	cpu0 := selfCPU()
	start := time.Now()
	var prevEnd time.Time
	for rep := 0; rep%simPatterns != 0 || rep == 0 || time.Since(start) < dur; rep++ {
		k := rep % simPatterns
		legs := meikoLegs(seed, k)
		t0 := time.Now()
		if rep > 0 {
			ph.gapMS = append(ph.gapMS, float64(t0.Sub(prevEnd))/1e6)
		}
		root := log.reserve()
		r := simRep{}
		for i, l := range legs {
			lr, err := l.run(log, root, int64(rep))
			if err != nil {
				return nil, err
			}
			tc := time.Now()
			ph.attempted += int(lr.digest.offered)
			if rep < simPatterns {
				want[k] = append(want[k], lr.digest)
			} else if lr.digest != want[k][i] {
				ph.failed += int(lr.digest.offered)
				fmt.Fprintf(os.Stderr, "sim leg %s rep %d: digest %+v differs from the pattern's first %+v\n", l.span, rep, lr.digest, want[k][i])
			}
			r.legs = append(r.legs, lr)
			r.setup += lr.setup
			if i == 0 {
				r.first = time.Since(t0)
			}
			log.add(root, int64(rep), "check", tc, time.Now())
		}
		prevEnd = time.Now()
		r.total = prevEnd.Sub(t0)
		log.finish(root, 0, int64(rep), "request", t0, prevEnd)
		// Only the latest clusters are scraped and only the first
		// arrivals are replayed; let the rest go.
		if n := len(ph.reps); n > 0 {
			for _, l := range ph.reps[n-1].legs {
				l.cluster = nil
				if n > 1 {
					l.arrivals = nil
				}
			}
		}
		ph.reps = append(ph.reps, r)
	}
	ph.cpuS = selfCPU() - cpu0
	return ph, nil
}

// totals sums a phase: simulated requests completed, the body megabytes
// they carried, and the wall time RunSchedule took to simulate them.
func (ph *simPhase) totals() (completed, bodyMB float64, run time.Duration) {
	sizes := meikoLegs(0, 0)
	for _, r := range ph.reps {
		for i, l := range r.legs {
			completed += float64(l.digest.completed)
			bodyMB += float64(l.digest.completed) * float64(sizes[i].docs[0].Size) / 1e6
			run += l.run
		}
	}
	return completed, bodyMB, run
}

func runSim(seed int64, seconds int, traced bool, outDir string) (*result, error) {
	res := newResult()
	runtime.GC()
	dur := time.Duration(seconds) * time.Second
	if traced {
		dur = dur * 2 / 5
	}
	ph, err := runSimPhase(seed, dur, nil)
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed = ph.attempted, ph.failed
	hwm, _ := statusField("/proc/self/status", "VmHWM:")

	completed, bodyMB, run := ph.totals()
	var repMS, firstMS, setupS []float64
	for _, r := range ph.reps {
		repMS = append(repMS, float64(r.total)/1e6)
		firstMS = append(firstMS, float64(r.first)/1e6)
		setupS = append(setupS, r.setup.Seconds())
	}
	rps := ratio(completed, run.Seconds())
	if !traced {
		m := res.metrics
		sorted := sortedCopy(repMS)
		m["rps"] = rps
		m["mbps"] = ratio(bodyMB, run.Seconds())
		m["p50_ms"] = median(repMS)
		m["ttfb_p50_ms"] = median(firstMS)
		m["srv_cpu_ms_per_req"] = ratio(ph.cpuS*1e3, completed)
		m["srv_rss_mb"] = hwm / 1024
		m["setup_s"] = median(setupS)
		res.notef("sim_meiko: %d replications of 2 legs over %d arrival patterns, %.0f simulated requests in %.2f s of RunSchedule; p%.0f replication %.1f ms",
			len(ph.reps), simPatterns, completed, run.Seconds(), tailRank(len(sorted)), percentile(sorted, tailRank(len(sorted))))
		res.notef("in-process, no sockets; p50 is wall ms per replication, ttfb is wall ms to a replication's first leg results")
		return res, nil
	}

	// Traced phase: same work with spans and allocation counts kept.
	epoch := time.Now()
	log := newSpanLog(epoch, 0, 1)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	self0, _ := readProc(os.Getpid())
	tp, err := runSimPhase(seed, dur, log)
	if err != nil {
		return nil, err
	}
	self1, _ := readProc(os.Getpid())
	runtime.ReadMemStats(&ms1)
	res.attempted += tp.attempted
	res.failed += tp.failed
	tCompleted, _, tRun := tp.totals()
	tracedRPS := ratio(tCompleted, tRun.Seconds())

	m := res.metrics
	last := tp.reps[len(tp.reps)-1]
	desLayers(m, last.legs)
	all := scrape{}
	var series, writeMS float64
	for _, l := range last.legs {
		s, n, w, err := scrapeSim(l.cluster)
		if err != nil {
			return nil, err
		}
		all.add(s)
		series += n / float64(len(last.legs))
		writeMS += w / float64(len(last.legs))
	}
	serverLayers(m, all, 0, 0)
	m["metrics.series"] = series
	m["metrics.scrape_ms"] = writeMS

	// The "server" of this workload is this process.
	m["swebd.cpu_user_s"] = self1.userS - self0.userS
	m["swebd.cpu_sys_s"] = self1.sysS - self0.sysS
	m["swebd.ctxsw_per_req"] = ratio(self1.ctxsw-self0.ctxsw, tCompleted)
	m["swebd.rss_peak_mb"] = self1.hwmMB
	m["swebd.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m["swebd.goroutines"] = float64(runtime.NumGoroutine())
	var builds []float64
	for _, r := range tp.reps {
		for _, l := range r.legs {
			builds = append(builds, float64(l.build)/1e6)
		}
	}
	m["swebd.start_ms"] = median(builds)

	// The generator's spans, under the role each plays for this substrate
	// (README, "client.* on sim_meiko").
	sum := summarizeSpans(log.spans)
	m["client.connect_us_p50"] = sum["new"].P50
	m["client.write_us_p50"] = sum["generate"].P50
	m["client.wait_us_p50"] = sum["run_small"].P50
	m["client.body_us_p50"] = sum["run_large"].P50
	m["client.hop_us_p50"] = sum["check"].P50
	m["client.self_us_p50"] = sum["request"].SelfP50
	m["client.late_ms_p99"] = percentile(sortedCopy(tp.gapMS), 99)
	var tRepMS []float64
	for _, r := range tp.reps {
		tRepMS = append(tRepMS, float64(r.total)/1e6)
	}
	m["client.p99_ms"] = percentile(sortedCopy(tRepMS), tailRank(len(tRepMS)))
	m["client.achieved_rps"] = tracedRPS
	m["client.conns_opened"] = 0
	m["client.conns_high_water"] = 0
	// Wall time of a replication that is not RunSchedule: the share a
	// faster simulator core cannot touch.
	var outside []float64
	for _, r := range tp.reps {
		t := r.total
		for _, l := range r.legs {
			t -= l.run
		}
		outside = append(outside, float64(t)/1e3)
	}
	m["client.unaccounted_us"] = median(outside)
	m["client.trace_overhead_pct"] = 100 * ratio(rps-tracedRPS, rps)
	m["client.fail_ratio"] = ratio(float64(res.failed), float64(res.attempted))

	// Replay the experiment's own arrivals through each layer.
	first := ph.reps[0]
	str := &stream{Nodes: 6}
	index := map[string]int{}
	for i, l := range meikoLegs(seed, 0) {
		for _, d := range l.docs {
			index[d.Path] = len(str.Docs)
			str.Docs = append(str.Docs, d)
		}
		for k, a := range first.legs[i].arrivals {
			str.fixed = append(str.fixed, request{Doc: index[a.Path], Node: k % 6})
		}
	}
	replayLayers(m, str, 64<<20, log)

	path, err := writeSpans(outDir, wlSimMeiko, log.spans)
	if err != nil {
		return nil, err
	}
	res.notef("traced: %d + %d replications, %d spans in %s", len(ph.reps), len(tp.reps), len(log.spans), path)
	res.spanSummary(log.spans)
	return res, nil
}
