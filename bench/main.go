// Command bench is the repository's one benchmark: four named workloads
// against real swebd processes and the discrete-event simulator, with
// end-to-end metrics from an untraced run and per-layer metrics from a
// traced one. See README.md and ../BENCHMARK.json.
//
//	go -C bench run . -workload hot_small -seed 1 [-seconds 20] [-trace 1]
//	go -C bench run . -repeat 5 [-out runs.json]
//	go -C bench run . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// result is one run's outcome. Only the JSON line printed last is the
// contract; notes are for people.
type result struct {
	attempted, failed int
	problems          []string // anything that makes the run incorrect besides failed requests
	metrics           map[string]float64
	notes             []string
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 && r.attempted > 0 }

// spanSummary notes each span kind's count, median and median self time.
func (r *result) spanSummary(spans []span) {
	sum := summarizeSpans(spans)
	names := make([]string, 0, len(sum))
	for n := range sum {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := sum[n]
		r.notef("span %-22s n=%-7d p50=%9.1f us  self p50=%9.1f us", n, s.Count, s.P50, s.SelfP50)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOutput is the last line of standard output, exactly these keys.
type runOutput struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// output picks the run's metric set (end-to-end when untraced, per-layer
// when traced) out of what the run measured; a metric the run failed to
// produce is a bug in the benchmark and stops it.
func (r *result) output(traced bool) (*runOutput, error) {
	out := &runOutput{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	put := func(name, unit string) error {
		v, ok := r.metrics[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured (have %v, %v)", name, v, ok)
		}
		out.Metrics[name] = metricOut{Value: v, Unit: unit}
		return nil
	}
	if traced {
		for _, m := range spec.PerLayer {
			if err := put(m.Name, m.Unit); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	for _, m := range spec.EndToEnd {
		if err := put(m.Name, m.Unit); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// generatorProcs is C: the generator's worker and connection count, and
// its GOMAXPROCS.
func generatorProcs() int { return min(runtime.NumCPU(), 2) }

// runWorkload performs one run and leaves nothing behind: children are
// stopped and scratch directories removed on every path out.
func runWorkload(root, name string, seed int64, seconds int, traced bool) (*result, error) {
	defer purge()
	outDir := filepath.Join(root, "bench", "out")
	var res *result
	var err error
	if name == wlSimMeiko {
		res, err = runSim(seed, seconds, traced, outDir)
	} else {
		res, err = runLive(root, liveDefs[name], seed, seconds, traced, outDir)
	}
	if err != nil {
		return nil, err
	}
	if n := purge(); n > 0 {
		res.problemf("%d swebd child(ren) were still alive after the run and had to be killed", n)
	}
	return res, nil
}

func main() {
	workload := flag.String("workload", "", "workload to run: hot_small, large_cold, redirect_serial, sim_meiko")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 0, "measured seconds (0: run_seconds from the spec)")
	trace := flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes bench/out/<workload>.spans.jsonl")
	repeat := flag.Int("repeat", 0, "run every workload N times and print each metric's median, quartiles and spread")
	out := flag.String("out", "", "with -repeat: also write every run's result to this file, for -compare")
	compare := flag.Bool("compare", false, "compare two -repeat result files: bench -compare a.json b.json")
	printSpec := flag.Bool("print-spec", false, "print the spec as BENCHMARK.json and exit")
	flag.Parse()

	if *printSpec {
		b, _ := json.MarshalIndent(spec, "", "  ")
		fmt.Println(string(b))
		return
	}
	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		os.Exit(compareFiles(root, flag.Arg(0), flag.Arg(1), os.Stdout))
	}

	runtime.GOMAXPROCS(generatorProcs())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		purge()
		os.Exit(130)
	}()
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	if *repeat > 0 {
		if err := repeatAll(root, *repeat, *seed, *seconds, *trace != 0, *out); err != nil {
			fatal(err)
		}
		return
	}
	if !spec.hasWorkload(*workload) {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	res, err := runWorkload(root, *workload, *seed, *seconds, *trace != 0)
	if err != nil {
		fatal(err)
	}
	o, err := res.output(*trace != 0)
	if err != nil {
		fatal(err)
	}
	printReport(*workload, res, o)
	line, _ := json.Marshal(o)
	fmt.Println(string(line))
	if !o.Correct {
		// The result is printed for diagnosis, but a run with failed
		// requests or a leaked child is not a measurement.
		os.Exit(1)
	}
}

func printReport(workload string, res *result, o *runOutput) {
	fmt.Printf("workload %s: attempted %d, failed %d, correct %v (loopback TCP, generator C=%d)\n",
		workload, o.Attempted, o.Failed, o.Correct, generatorProcs())
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}
	for _, p := range res.problems {
		fmt.Println("  PROBLEM: " + p)
	}
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-30s %14.4f %s\n", n, o.Metrics[n].Value, o.Metrics[n].Unit)
	}
}

func fatal(err error) {
	purge()
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
