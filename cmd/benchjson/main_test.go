package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const sampleRun = `goos: linux
goarch: amd64
pkg: sweb
BenchmarkTable1-8   	       1	 512345678 ns/op	     120 meiko-sustained-1.5M-rps	    40960 B/op	     311 allocs/op
BenchmarkForwarding-8 	       1	 118175611 ns/op	     6.27 forward-s	     8.078 redirect-s
PASS
ok  	sweb	3.210s
`

func TestParseRun(t *testing.T) {
	rep, err := parse(strings.NewReader(sampleRun), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkTable1" {
		t.Fatalf("first = %+v", b)
	}
	// Only the custom metric survives: the host-timed columns are dropped.
	if len(b.Metrics) != 1 || b.Metrics["meiko-sustained-1.5M-rps"] != 120 {
		t.Fatalf("first metrics = %+v", b.Metrics)
	}
	if f := rep.Benchmarks[1]; f.Name != "BenchmarkForwarding" || f.Metrics["forward-s"] != 6.27 || f.Metrics["redirect-s"] != 8.078 {
		t.Fatalf("second = %+v", f)
	}
}

func TestParsePassesThroughNonBenchLines(t *testing.T) {
	var out strings.Builder
	if _, err := parse(strings.NewReader(sampleRun), &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"goos: linux", "PASS", "ok  \tsweb"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("passthrough missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "BenchmarkTable1") {
		t.Fatal("benchmark line leaked into passthrough")
	}
}

func TestParseLineRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"",
		"PASS",
		"Benchmark only-name",                // no iteration count
		"BenchmarkX 2 99 ns/op extra",        // dangling value without unit
		"BenchmarkX 2 banana ns/op",          // non-numeric value
		"NotABenchmark 2 99 ns/op",           // wrong prefix
		"ok  	sweb	3.210s",                   // trailer
		"--- BENCH: BenchmarkTable1-8",       // sub-benchmark header
		"    bench_test.go:30: some log out", // b.Log output
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("line %q parsed as a benchmark", line)
		}
	}
}

func TestTrimProcSuffix(t *testing.T) {
	cases := map[string]string{
		"BenchmarkTable1-8":    "BenchmarkTable1",
		"BenchmarkTable1":      "BenchmarkTable1",
		"BenchmarkGossip-loss": "BenchmarkGossip-loss", // non-numeric tail kept
		"BenchmarkX-16":        "BenchmarkX",
	}
	for in, want := range cases {
		if got := trimProcSuffix(in); got != want {
			t.Errorf("trimProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestCompare runs the -compare path on edited copies of sampleRun against
// the unedited run, archived as JSON, as baseline: only an identical run
// passes, and every failure names the benchmark and metric that differ.
func TestCompare(t *testing.T) {
	rep, err := parse(strings.NewReader(sampleRun), nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	base := new(Report)
	if err := json.Unmarshal(raw, base); err != nil {
		t.Fatal(err)
	}
	edit := func(old, new string) string { return strings.Replace(sampleRun, old, new, 1) }
	cases := []struct {
		name, run string
		want      string // substring of the failure; empty means pass
	}{
		{"identical", sampleRun, ""},
		{"host timing differs", edit("512345678 ns/op", "9 ns/op"), ""},
		{"one digit changed", edit("6.27 forward-s", "6.28 forward-s"),
			"BenchmarkForwarding forward-s: baseline 6.27, run 6.28"},
		{"benchmark missing from run", edit("BenchmarkTable1-8", "--- SKIP: BenchmarkTable1-8"),
			"BenchmarkTable1: missing from the run"},
		{"benchmark missing from baseline", sampleRun + "BenchmarkNew-8 1 5 ns/op 1 new-s\n",
			"BenchmarkNew: missing from the baseline"},
		{"metric missing from run", edit("     8.078 redirect-s", ""),
			"BenchmarkForwarding redirect-s: missing from the run"},
		{"metric missing from baseline", edit("6.27 forward-s", "6.27 forward-s 1 extra-s"),
			"BenchmarkForwarding extra-s: missing from the baseline"},
		{"empty run", "PASS\nok  \tsweb\t0.1s\n", "no benchmark lines"},
		{"failed run", sampleRun + "--- FAIL: BenchmarkX\nFAIL\tsweb\t3.2s\n", "run failed"},
		{"failed build", "# sweb\n./x.go:1:1: syntax error\nFAIL\tsweb [build failed]\n", "run failed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := ""
			if rep, err := parse(strings.NewReader(tc.run), nil); err != nil {
				got = err.Error()
			} else {
				got = strings.Join(diff(base, rep), "\n")
			}
			switch {
			case tc.want == "" && got != "":
				t.Fatalf("want pass, got:\n%s", got)
			case tc.want != "" && !strings.Contains(got, tc.want):
				t.Fatalf("want failure %q, got:\n%s", tc.want, got)
			}
		})
	}
}
