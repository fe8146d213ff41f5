package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// runRecord is one run as -repeat stores it and -compare reads it.
type runRecord struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Traced   bool      `json:"traced"`
	Output   runOutput `json:"output"`
}

type runFile struct {
	Runs []runRecord `json:"runs"`
}

func readRunFile(path string) (*runFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric's value from every run of a workload that was
// traced (per-layer metrics) or not (end-to-end metrics).
func (f *runFile) values(workload, metric string, traced bool) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if m, ok := r.Output.Metrics[metric]; ok && r.Workload == workload && r.Traced == traced {
			out = append(out, m.Value)
		}
	}
	return out
}

func (f *runFile) failRatio() float64 {
	var attempted, failed int
	for _, r := range f.Runs {
		attempted += r.Output.Attempted
		failed += r.Output.Failed
	}
	return ratio(float64(failed), float64(attempted))
}

// Verdicts of one (workload, metric) row.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's runs on a base commit (a) and a change (b).
// worse is how far b's median moved in the bad direction as a share of
// a's. A spread wider than the bound means the benchmark cannot tell on
// this machine, which is reported as such, never as "unchanged"; a gain
// is only called when it exceeds the base's own run-to-run spread.
func judge(m e2eSpec, a, b []float64) (verdict string, worse, spread float64) {
	ma, mb := median(a), median(b)
	worse = ratio(mb-ma, ma)
	if m.Better == higher {
		worse = -worse
	}
	spread = max(iqrSpread(a), iqrSpread(b))
	switch {
	case spread > m.Bound:
		return verdictUnresolved, worse, spread
	case worse > m.Bound:
		return verdictWorse, worse, spread
	case -worse > iqrSpread(a):
		return verdictBetter, worse, spread
	}
	return verdictWithin, worse, spread
}

// compareRuns prints one row per (workload, end-to-end metric) of s and
// returns the process exit code: 1 if any row is worse or b failed a
// larger share of its requests than a. Metrics outside s.EndToEnd — a
// demoted one, say — are not looked at.
func compareRuns(s benchSpec, a, b *runFile, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %9s %9s  %s\n", "workload", "metric", "base median", "new median", "worse %", "spread %", "verdict")
	for _, wl := range s.Workloads {
		for _, m := range s.EndToEnd {
			va, vb := a.values(wl.Name, m.Name, false), b.values(wl.Name, m.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-16s %-20s %14s %14s %9s %9s  %s\n", wl.Name, m.Name, "-", "-", "-", "-", "missing")
				continue
			}
			verdict, worse, spread := judge(m, va, vb)
			if verdict == verdictWorse {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-20s %14.4f %14.4f %+9.2f %9.2f  %s\n",
				wl.Name, m.Name, median(va), median(vb), 100*worse, 100*spread, verdict)
		}
	}
	if fa, fb := a.failRatio(), b.failRatio(); fb > fa {
		fmt.Fprintf(w, "fail ratio rose from %g to %g\n", fa, fb)
		code = 1
	}
	return code
}

func compareFiles(root, pathA, pathB string, w io.Writer) int {
	s, err := loadSpec(root)
	if err != nil {
		fatal(err)
	}
	a, err := readRunFile(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readRunFile(pathB)
	if err != nil {
		fatal(err)
	}
	return compareRuns(s, a, b, w)
}
