// Command swebsim regenerates the SWEB paper's evaluation tables on the
// simulated Meiko CS-2 / NOW substrate.
//
// Usage:
//
//	swebsim -table all            # every experiment (slow: full searches)
//	swebsim -table 2              # a single table: 1,2,3,4,5, skew,
//	                              # overhead, analytic, a1..a4, hetero
//	swebsim -table 2 -quick       # shortened durations and search limits
//	swebsim -seed 7               # change the randomness seed
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"sweb/internal/experiments"
	"sweb/internal/heat"
	"sweb/internal/simsrv"
	"sweb/internal/stats"
	"sweb/internal/storage"
	"sweb/internal/trace"
	"sweb/internal/workload"
)

func main() {
	table := flag.String("table", "all", "which experiment to run: all,1,2,3,4,5,skew,overhead,analytic,a1,a2,a3,a4,hetero,forward,central,spof,loss,curve,tput,coop,east")
	quick := flag.Bool("quick", false, "shorter durations and search limits")
	seed := flag.Int64("seed", 1, "random seed")
	format := flag.String("format", "text", "output format: text, md, csv")
	traceOut := flag.String("trace-out", "", "also run a small traced Meiko burst and write its Chrome trace-event (Perfetto) JSON here")
	cacheBytes := flag.Int64("cache-bytes", 0, "override every node's page-cache capacity in bytes for the demo runs (0: the spec default; matches swebd -cache-bytes)")
	cacheOff := flag.Bool("cache-off", false, "zero every node's page cache for the demo runs (matches swebd -cache-off)")
	heatFlag := flag.Bool("heat", false, "run a skewed demo burst and print the document-heat panel and placement advisor report")
	replicasFlag := flag.Int("replicas", 1, "replicate every demo-run document R ways across the simulated nodes (matches swebd -replicas)")
	flag.Parse()
	demoReplicas = *replicasFlag

	if *traceOut != "" {
		if err := exportDemoTrace(*traceOut, *seed, *cacheBytes, *cacheOff); err != nil {
			fmt.Fprintln(os.Stderr, "swebsim:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote simulated trace to %s; load it at ui.perfetto.dev\n", *traceOut)
		if *table == "" {
			return
		}
	}

	if *heatFlag {
		if err := runHeatReport(*seed, *cacheBytes, *cacheOff); err != nil {
			fmt.Fprintln(os.Stderr, "swebsim:", err)
			os.Exit(1)
		}
		if *table == "" {
			return
		}
	}

	o := experiments.Options{Quick: *quick, Seed: *seed}
	which := strings.Split(*table, ",")
	if *table == "all" {
		which = tableOrder
	}
	if *table == "" {
		which = nil
	}
	render := func(t *stats.Table) string { return t.String() }
	switch *format {
	case "text":
	case "md":
		render = func(t *stats.Table) string { return t.Markdown() }
	case "csv":
		render = func(t *stats.Table) string { return t.CSV() }
	default:
		fmt.Fprintf(os.Stderr, "swebsim: unknown format %q\n", *format)
		os.Exit(2)
	}
	for _, w := range which {
		run, ok := tables[w]
		if !ok {
			fmt.Fprintf(os.Stderr, "swebsim: unknown table %q (want one of %s)\n", w, strings.Join(tableOrder, ","))
			os.Exit(2)
		}
		fmt.Println(render(run(o)))
	}
}

// tables maps each -table name to the experiment that renders it.
var tables = map[string]func(experiments.Options) *stats.Table{
	"1":        func(o experiments.Options) *stats.Table { _, t := experiments.Table1(o); return t },
	"2":        func(o experiments.Options) *stats.Table { _, t := experiments.Table2(o); return t },
	"3":        func(o experiments.Options) *stats.Table { _, t := experiments.Table3(o); return t },
	"4":        func(o experiments.Options) *stats.Table { _, t := experiments.Table4(o); return t },
	"5":        func(o experiments.Options) *stats.Table { _, t := experiments.Table5(o); return t },
	"skew":     func(o experiments.Options) *stats.Table { _, t := experiments.Skewed(o); return t },
	"overhead": func(o experiments.Options) *stats.Table { _, t := experiments.Overhead(o); return t },
	"analytic": func(o experiments.Options) *stats.Table { _, t := experiments.Analytic(o); return t },
	"a1":       func(o experiments.Options) *stats.Table { _, t := experiments.AblationDelta(o); return t },
	"a2":       func(o experiments.Options) *stats.Table { _, t := experiments.AblationDNSCache(o); return t },
	"a3":       func(o experiments.Options) *stats.Table { _, t := experiments.AblationFacets(o); return t },
	"a4":       func(o experiments.Options) *stats.Table { _, t := experiments.AblationPingPong(o); return t },
	"hetero":   func(o experiments.Options) *stats.Table { _, t := experiments.Heterogeneous(o); return t },
	"forward":  func(o experiments.Options) *stats.Table { _, t := experiments.Forwarding(o); return t },
	"central":  func(o experiments.Options) *stats.Table { _, t := experiments.Centralized(o); return t },
	"spof":     func(o experiments.Options) *stats.Table { _, t := experiments.CentralSPOF(o); return t },
	"loss":     func(o experiments.Options) *stats.Table { _, t := experiments.GossipLoss(o); return t },
	"curve":    func(o experiments.Options) *stats.Table { _, t := experiments.ScalabilityCurve(o); return t },
	"tput":     func(o experiments.Options) *stats.Table { _, t := experiments.Throughput(o); return t },
	"coop":     func(o experiments.Options) *stats.Table { _, t := experiments.CoopCache(o); return t },
	"east":     func(o experiments.Options) *stats.Table { _, t := experiments.EastCoast(o); return t },
}

// tableOrder is the order -table all runs the experiments in, which is the
// order of EXPERIMENTS.md's appendix.
var tableOrder = []string{"1", "2", "3", "4", "5", "skew", "overhead", "analytic",
	"a1", "a2", "a3", "a4", "hetero", "forward", "central", "spof", "loss",
	"curve", "tput", "coop", "east"}

// demoReplicas is the -replicas setting for the demo runs; applyReplicas
// folds it into each demo's document set.
var demoReplicas = 1

// applyReplicas replicates the demo documents R ways when -replicas asks
// for it, mirroring swebd's deterministic startup placement.
func applyReplicas(st *storage.Store) {
	if demoReplicas > 1 {
		storage.Replicate(st, demoReplicas)
	}
}

// exportDemoTrace runs a short traced Meiko burst — small enough to open
// comfortably in the Perfetto UI, busy enough to show 302 hops as flow
// arrows between node tracks — and writes the Chrome trace-event JSON.
func exportDemoTrace(path string, seed, cacheBytes int64, cacheOff bool) error {
	const nodes = 4
	st := storage.NewStore(nodes)
	paths := storage.UniformSet(st, 16, 64<<10)
	applyReplicas(st)
	rec := trace.NewRecorder(0)
	cfg := simsrv.MeikoConfig(nodes, st)
	cfg.Seed = seed
	cfg.Trace = rec
	cfg.CacheBytes = cacheBytes
	cfg.CacheOff = cacheOff
	cl, err := simsrv.New(cfg)
	if err != nil {
		return err
	}
	burst := workload.Burst{RPS: 8, DurationSeconds: 5, Jitter: true}
	rng := rand.New(rand.NewSource(seed))
	arrivals, err := burst.Generate(workload.UniformPicker(paths), nil, rng)
	if err != nil {
		return err
	}
	cl.RunSchedule(arrivals)
	col := trace.NewCollector()
	col.Add(0, rec.Events()) // sim time is already one shared clock
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.ExportChrome(f, col.Spans())
}

// runHeatReport drives a skewed demo burst — the paper's Section 4.2
// hotspot pathology, most requests hammering one file owned by node 0 —
// then prints the cluster-wide document-heat panel and the placement
// advisor's report.
func runHeatReport(seed, cacheBytes int64, cacheOff bool) error {
	const nodes = 4
	st := storage.NewStore(nodes)
	paths := storage.UniformSet(st, 16, 64<<10)
	hot := storage.SkewedSet(st, 256<<10)
	applyReplicas(st)
	cfg := simsrv.MeikoConfig(nodes, st)
	cfg.Seed = seed
	cfg.CacheBytes = cacheBytes
	cfg.CacheOff = cacheOff
	cl, err := simsrv.New(cfg)
	if err != nil {
		return err
	}
	pick, err := workload.WeightedPicker([][]string{{hot}, paths}, []float64{0.7, 0.3})
	if err != nil {
		return err
	}
	burst := workload.Burst{RPS: 8, DurationSeconds: 10, Jitter: true}
	rng := rand.New(rand.NewSource(seed))
	arrivals, err := burst.Generate(pick, nil, rng)
	if err != nil {
		return err
	}
	cl.RunSchedule(arrivals)
	m := cl.MergedHeat()
	fmt.Print(heat.Render("hottest documents, cluster-wide (simulated)", m, 8))
	fmt.Print(heat.RenderAdvice("placement advisor (report-only)", heat.Advise(m), 8))
	return nil
}
