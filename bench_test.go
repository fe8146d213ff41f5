package sweb_test

import (
	"math/rand"
	"testing"

	"sweb"
	"sweb/internal/des"
	"sweb/internal/rebalance"
	"sweb/internal/simsrv"
	"sweb/internal/storage"
	"sweb/internal/workload"
)

// One benchmark per table/figure in the paper's evaluation. Each iteration
// regenerates the experiment on the simulated substrate (quick mode: the
// full 30s/45s bursts, shortened sustained searches) and reports the
// headline numbers as custom metrics, so
//
//	go test -run '^$' -bench=. -benchtime=1x .
//
// reproduces the whole evaluation. The runs are seeded and touch no clock
// or socket, so the metrics are exact: `make bench-compare` requires them to
// equal BENCH_sim.json digit for digit. Host performance is measured by the
// bench/ module instead. The full-length variants are available through
// cmd/swebsim.

func benchOpts(i int) sweb.ExperimentOptions {
	return sweb.ExperimentOptions{Quick: true, Seed: int64(i) + 1}
}

// BenchmarkTable1 regenerates Table 1: maximum rps, burst vs sustained,
// Meiko and NOW, single server vs SWEB.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := sweb.Table1(benchOpts(i))
		for _, r := range rows {
			if r.Machine == "Meiko" && r.Server == "SWEB" && r.FileSize == 1536<<10 && r.Duration >= 60 {
				b.ReportMetric(float64(r.MaxRPS), "meiko-sustained-1.5M-rps")
			}
			if r.Machine == "NOW" && r.Server == "SWEB" && r.FileSize == 1536<<10 && r.Duration == 30 {
				b.ReportMetric(float64(r.MaxRPS), "now-burst-1.5M-rps")
			}
		}
	}
}

// BenchmarkTable2 regenerates Table 2: response time and drop rate vs node
// count at a fixed offered load.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := sweb.Table2(benchOpts(i))
		for _, r := range rows {
			if r.Machine == "Meiko" && r.FileSize == 1536<<10 {
				switch r.Nodes {
				case 1:
					b.ReportMetric(r.DropRate*100, "single-node-drop-pct")
				case 6:
					b.ReportMetric(r.MeanResponse, "six-node-response-s")
				}
			}
		}
	}
}

// BenchmarkTable3 regenerates Table 3: non-uniform sizes, RR vs FL vs SWEB.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := sweb.Table3(benchOpts(i))
		var rr, sw float64
		for _, r := range rows {
			if r.RPS == 24 {
				switch r.Policy {
				case "Round Robin":
					rr = r.MeanResponse
				case "SWEB":
					sw = r.MeanResponse
				}
			}
		}
		if sw > 0 {
			b.ReportMetric(rr/sw, "sweb-speedup-over-rr")
		}
	}
}

// BenchmarkTable4 regenerates Table 4: uniform 1.5MB on the NOW Ethernet.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := sweb.Table4(benchOpts(i))
		var rr, fl float64
		for _, r := range rows {
			if r.RPS == 4 {
				switch r.Policy {
				case "Round Robin":
					rr = r.MeanResponse
				case "File Locality":
					fl = r.MeanResponse
				}
			}
		}
		if fl > 0 {
			b.ReportMetric(rr/fl, "locality-speedup-over-rr")
		}
	}
}

// BenchmarkTable5 regenerates Table 5: the client-side cost distribution of
// a 1.5MB fetch on the loaded Meiko.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _ := sweb.Table5(benchOpts(i))
		b.ReportMetric(res.Total, "total-client-s")
		b.ReportMetric(res.Preprocess*1000, "preprocess-ms")
		b.ReportMetric((res.Analysis+res.Redirect)*1000, "sweb-overhead-ms")
	}
}

// BenchmarkSkewed regenerates the Section 4.2 hot-file pathology test.
func BenchmarkSkewed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := sweb.SkewedTest(benchOpts(i))
		for _, r := range rows {
			switch r.Policy {
			case "Round Robin":
				b.ReportMetric(r.MeanResponse, "rr-s")
			case "File Locality":
				b.ReportMetric(r.MeanResponse, "fl-s")
			case "SWEB":
				b.ReportMetric(r.MeanResponse, "sweb-s")
			}
		}
	}
}

// BenchmarkOverhead regenerates the Section 4.3 server-side CPU accounting.
func BenchmarkOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _ := sweb.Overhead(benchOpts(i))
		b.ReportMetric(res.Shares["schedule"]*100, "schedule-cpu-pct")
		b.ReportMetric(res.Shares["loadd"]*100, "loadd-cpu-pct")
		b.ReportMetric(res.Shares["parse"]*100, "parse-cpu-pct")
	}
}

// BenchmarkAnalytic evaluates the Section 3.3 closed form (and, in full
// mode, its simulated counterpart).
func BenchmarkAnalytic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := sweb.AnalyticTable(benchOpts(i))
		b.ReportMetric(rows[0].Predicted, "meiko-analytic-rps")
	}
}

// BenchmarkAblationDelta measures the Δ=30% anti-herd bump on vs off.
func BenchmarkAblationDelta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := sweb.AblationDelta(benchOpts(i))
		b.ReportMetric(rows[0].MeanResponse, "delta-on-s")
		b.ReportMetric(rows[1].MeanResponse, "delta-off-s")
	}
}

// BenchmarkAblationDNSCache measures the round-robin DNS caching weakness.
func BenchmarkAblationDNSCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := sweb.AblationDNSCache(benchOpts(i))
		for _, r := range rows {
			switch {
			case r.Variant == "no caching, RR":
				b.ReportMetric(r.MeanResponse, "rr-s")
			case r.Variant == "cached (3 domains, 60s TTL), RR":
				b.ReportMetric(r.MeanResponse, "rr-cached-s")
			default:
				b.ReportMetric(r.MeanResponse, "sweb-cached-s")
			}
		}
	}
}

// BenchmarkAblationFacets measures multi-faceted vs single-faceted
// scheduling.
func BenchmarkAblationFacets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := sweb.AblationFacets(benchOpts(i))
		for _, r := range rows {
			switch r.Variant {
			case "multi-faceted (SWEB)":
				b.ReportMetric(r.MeanResponse, "multi-s")
			case "single-faceted (CPU-only)":
				b.ReportMetric(r.MeanResponse, "cpu-only-s")
			}
		}
	}
}

// BenchmarkAblationPingPong measures the redirect-limit choice.
func BenchmarkAblationPingPong(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := sweb.AblationPingPong(benchOpts(i))
		for _, r := range rows {
			switch r.Variant {
			case "max redirects=1":
				b.ReportMetric(r.MeanResponse, "limit1-s")
			case "max redirects=0":
				b.ReportMetric(r.MeanResponse, "limit0-s")
			}
		}
	}
}

// BenchmarkHeterogeneous measures the Section 5 future-work scenario:
// unequal node speeds with churn.
func BenchmarkHeterogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := sweb.Heterogeneous(benchOpts(i))
		for _, r := range rows {
			if r.Variant == "SWEB" {
				b.ReportMetric(r.MeanResponse, "sweb-s")
			} else {
				b.ReportMetric(r.MeanResponse, "rr-s")
			}
		}
	}
}

// BenchmarkForwarding compares URL redirection with server-side forwarding
// (the Section 3.1 alternative the paper rejected).
func BenchmarkForwarding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := sweb.Forwarding(benchOpts(i))
		for _, r := range rows {
			if r.Variant == "reassign=redirect" {
				b.ReportMetric(r.MeanResponse, "redirect-s")
			} else {
				b.ReportMetric(r.MeanResponse, "forward-s")
			}
		}
	}
}

// BenchmarkCentralized compares the distributed scheduler with the central
// dispatcher Section 3.1 argues against.
func BenchmarkCentralized(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := sweb.Centralized(benchOpts(i))
		for _, r := range rows {
			if r.RPS == 32 {
				if r.Arch == "distributed" {
					b.ReportMetric(r.MeanResponse, "distributed-s")
				} else {
					b.ReportMetric(r.MeanResponse, "centralized-s")
				}
			}
		}
	}
}

// BenchmarkCentralSPOF measures the single-point-of-failure cost.
func BenchmarkCentralSPOF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := sweb.CentralSPOF(benchOpts(i))
		for _, r := range rows {
			if r.Arch == "centralized, dispatcher dies" {
				b.ReportMetric(r.DropRate*100, "centralized-drop-pct")
			} else {
				b.ReportMetric(r.DropRate*100, "distributed-drop-pct")
			}
		}
	}
}

// BenchmarkGossipLoss measures loadd's tolerance to dropped datagrams.
func BenchmarkGossipLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := sweb.GossipLoss(benchOpts(i))
		b.ReportMetric(rows[0].MeanResponse, "loss0-s")
		b.ReportMetric(rows[2].MeanResponse, "loss70-s")
	}
}

// BenchmarkScalabilityCurve regenerates the response-vs-load curve.
func BenchmarkScalabilityCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, _ := sweb.ScalabilityCurve(benchOpts(i))
		for _, p := range points {
			if p.RPS == 24 {
				switch p.Nodes {
				case 1:
					b.ReportMetric(p.MeanResponse, "n1-24rps-s")
				case 4:
					b.ReportMetric(p.MeanResponse, "n4-24rps-s")
				}
			}
		}
	}
}

// BenchmarkCoopCache measures the cooperative cache-hint extension.
func BenchmarkCoopCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := sweb.CoopCache(benchOpts(i))
		b.ReportMetric(rows[0].MeanResponse, "hints-off-s")
		b.ReportMetric(rows[1].MeanResponse, "hints-on-s")
	}
}

// BenchmarkReplicatedHotSet is the redistribution headline: a Zipf-style
// skew aims 80% of a round-robin cluster's traffic at one 1.5MB document,
// so under the static single-owner layout every byte of the hot set
// streams off one disk — two thirds of it over the interconnect. The
// heat-driven rebalancer replicates the hotspot onto its heaviest landing
// node a couple of virtual seconds in, splitting the disk load two ways.
// The comparison is the same seeded burst with the rebalancer off vs on:
// redistribution must beat the static-owner layout on mean response, and
// the relay rate for the hot document must drop.
func BenchmarkReplicatedHotSet(b *testing.B) {
	// 80% of 6 rps aims 7.2 MB/s of 1.5MB fetches at the owner's 5 MB/s
	// disk: past one disk's capacity, comfortably under two's — the regime
	// where a second copy is the difference between divergence and health.
	const (
		nodes = 3
		rps   = 6
		dur   = 30
	)
	run := func(seed int64, rebal bool) (mean, relays, completed float64) {
		st := storage.NewStore(nodes)
		bg := storage.UniformSet(st, 6, 256<<10)
		hot := storage.SkewedSet(st, 1536<<10)
		cfg := simsrv.MeikoConfig(nodes, st)
		// Round-robin serves where requests land and the cache is off, so
		// the only relief can come from where the bytes live.
		cfg.Policy = simsrv.PolicyRoundRobin
		cfg.CacheOff = true
		cfg.Seed = seed
		cl, err := simsrv.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rebal {
			cl.StartRebalancer(rebalance.Config{
				MaxReplicas:   2,
				BudgetPerTick: 1,
				HotShare:      0.5,
				CoolShare:     0.05,
				ForTicks:      2,
				CooldownTicks: 2,
			}, des.Second)
		}
		pick, err := workload.WeightedPicker([][]string{{hot}, bg}, []float64{0.8, 0.2})
		if err != nil {
			b.Fatal(err)
		}
		burst := workload.Burst{RPS: rps, DurationSeconds: dur, Jitter: true}
		arr, err := burst.Generate(pick, nil, rand.New(rand.NewSource(seed)))
		if err != nil {
			b.Fatal(err)
		}
		res := cl.RunSchedule(arr)
		if res.Completed == 0 {
			b.Fatal("skewed burst completed nothing")
		}
		for i := 0; i < cl.Nodes(); i++ {
			for _, e := range cl.HeatDump(i).Entries {
				if e.Path == hot {
					relays += float64(e.Relays)
				}
			}
		}
		return res.MeanResponse(), relays, float64(res.Completed)
	}
	for i := 0; i < b.N; i++ {
		seed := int64(i) + 31
		staticMean, staticRelays, staticDone := run(seed, false)
		rebalMean, rebalRelays, rebalDone := run(seed, true)
		b.ReportMetric(staticMean, "static-owner-s")
		b.ReportMetric(rebalMean, "rebalanced-s")
		b.ReportMetric(staticMean/rebalMean, "redistribution-speedup")
		b.ReportMetric(100*(staticRelays-rebalRelays)/staticRelays, "relay-reduction-pct")
		b.ReportMetric(rebalDone/staticDone, "completion-ratio")
	}
}

// BenchmarkEastCoast measures the Rutgers cross-country client experiment.
func BenchmarkEastCoast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := sweb.EastCoast(benchOpts(i))
		for _, r := range rows {
			switch r.Policy {
			case "Round Robin":
				b.ReportMetric(r.MeanResponse, "rr-s")
			case "File Locality":
				b.ReportMetric(r.MeanResponse, "fl-s")
			}
		}
	}
}
