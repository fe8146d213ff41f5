// Command benchjson archives the custom metrics of `go test -bench` output
// and checks a fresh run against the archive:
//
//	go test -run '^$' -bench=. -benchtime=1x . | go run ./cmd/benchjson > BENCH_sim.json
//	go test -run '^$' -bench=. -benchtime=1x . | go run ./cmd/benchjson -compare BENCH_sim.json
//
// Only b.ReportMetric numbers (like "meiko-sustained-1.5M-rps") are kept:
// ns/op, B/op, allocs/op and MB/s time the host, not the simulated cluster.
// Each benchmark replays a seeded discrete-event simulation, so its metrics
// are exact and -compare fails on any difference, and on any benchmark or
// metric present on one side only. Input with a FAIL line or without any
// benchmark line is an error in both modes, so a broken build can neither
// overwrite the archive nor pass the check. Other lines pass through to
// stderr.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line's custom metrics.
type Benchmark struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the document benchjson emits.
type Report struct {
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	compare := flag.String("compare", "", "baseline Report JSON the run must match exactly")
	flag.Parse()
	if err := run(*compare); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(compare string) error {
	rep, err := parse(os.Stdin, os.Stderr)
	if err != nil {
		return err
	}
	if compare == "" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	raw, err := os.ReadFile(compare)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("%s: %v", compare, err)
	}
	diffs := diff(&base, rep)
	for _, d := range diffs {
		fmt.Println(d)
	}
	if len(diffs) > 0 {
		return fmt.Errorf("%d difference(s) from %s", len(diffs), compare)
	}
	fmt.Printf("%d benchmarks identical to %s\n", len(rep.Benchmarks), compare)
	return nil
}

// diff lists, sorted, every benchmark and metric on which fresh differs
// from base, one line each naming it. Empty means the runs are identical.
func diff(base, fresh *Report) []string {
	b, f := flatten(base), flatten(fresh)
	var out []string
	for k, bv := range b {
		if fv, ok := f[k]; !ok {
			out = append(out, k+": missing from the run")
		} else if fv != bv {
			out = append(out, fmt.Sprintf("%s: baseline %v, run %v", k, bv, fv))
		}
	}
	for k := range f {
		if _, ok := b[k]; !ok {
			out = append(out, k+": missing from the baseline")
		}
	}
	sort.Strings(out)
	return out
}

// flatten keys every metric as "<benchmark> <metric>", plus the bare
// benchmark name so a row without metrics still has to be present.
func flatten(r *Report) map[string]float64 {
	m := make(map[string]float64)
	for _, b := range r.Benchmarks {
		m[b.Name] = 0
		for unit, v := range b.Metrics {
			m[b.Name+" "+unit] = v
		}
	}
	return m
}

// parse reads `go test -bench` output from r, echoing non-benchmark lines
// to passthrough (nil discards them).
func parse(r io.Reader, passthrough io.Writer) (*Report, error) {
	rep := &Report{Benchmarks: []Benchmark{}}
	failed := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if b, ok := parseLine(line); ok {
			rep.Benchmarks = append(rep.Benchmarks, b)
			continue
		}
		if passthrough != nil {
			fmt.Fprintln(passthrough, line)
		}
		// go test ends every failed run, build failures included, with a
		// "FAIL" or "FAIL\t<pkg>" line.
		failed = failed || strings.HasPrefix(line, "FAIL")
	}
	switch {
	case sc.Err() != nil:
		return nil, sc.Err()
	case failed:
		return nil, errors.New("the benchmark run failed")
	case len(rep.Benchmarks) == 0:
		return nil, errors.New("no benchmark lines in the input")
	}
	return rep, nil
}

// parseLine parses one result line — a Benchmark* name, an iteration
// count, then (value, unit) pairs:
//
//	BenchmarkTable1-8   1   123456 ns/op   96.5 some-rps   512 B/op
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 || len(fields)%2 != 0 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: trimProcSuffix(fields[0])}
	for i := 2; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op", "B/op", "allocs/op", "MB/s":
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, true
}

// trimProcSuffix drops the -GOMAXPROCS tail ("BenchmarkTable1-8" →
// "BenchmarkTable1") so results compare across machines.
func trimProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
