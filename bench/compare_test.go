package main

import (
	"bytes"
	"strings"
	"testing"
)

var compareSpec = benchSpec{
	Workloads: []workloadSpec{{Name: "hot_small"}, {Name: "sim_meiko"}},
	EndToEnd: []e2eSpec{
		{"rps", "1/s", higher, 0.10},
		{"p50_ms", "ms", lower, 0.10},
	},
}

// runs builds a result file: per workload and metric, five runs around a
// centre with a +-1% wobble.
func runs(centres map[string]map[string]float64, failed int) *runFile {
	f := &runFile{}
	for wl, metrics := range centres {
		for i, wobble := range []float64{0.99, 0.995, 1, 1.005, 1.01} {
			out := runOutput{Correct: failed == 0, Attempted: 1000, Failed: failed, Metrics: map[string]metricOut{}}
			for name, c := range metrics {
				out.Metrics[name] = metricOut{Value: c * wobble}
			}
			f.Runs = append(f.Runs, runRecord{Workload: wl, Seed: int64(i), Output: out})
		}
	}
	return f
}

func rowOf(t *testing.T, table, workload, metric string) string {
	t.Helper()
	for _, line := range strings.Split(table, "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[0] == workload && f[1] == metric {
			return line
		}
	}
	t.Fatalf("no row for %s %s in:\n%s", workload, metric, table)
	return ""
}

func TestCompare(t *testing.T) {
	base := map[string]map[string]float64{
		"hot_small": {"rps": 20000, "p50_ms": 0.06, "client.p99_ms": 0.3},
		"sim_meiko": {"rps": 22000, "p50_ms": 300, "client.p99_ms": 400},
	}
	with := func(wl, metric string, factor float64) map[string]map[string]float64 {
		out := map[string]map[string]float64{}
		for w, ms := range base {
			out[w] = map[string]float64{}
			for m, v := range ms {
				out[w][m] = v
			}
		}
		out[wl][metric] *= factor
		return out
	}
	check := func(name string, b *runFile, wantCode int, wl, metric, wantVerdict string) {
		t.Helper()
		var buf bytes.Buffer
		if code := compareRuns(compareSpec, runs(base, 0), b, &buf); code != wantCode {
			t.Errorf("%s: exit code %d, want %d\n%s", name, code, wantCode, buf.String())
		}
		if row := rowOf(t, buf.String(), wl, metric); !strings.HasSuffix(row, wantVerdict) {
			t.Errorf("%s: row %q, want verdict %q", name, row, wantVerdict)
		}
	}
	check("unchanged", runs(base, 0), 0, "hot_small", "rps", verdictWithin)
	check("12% fewer rps", runs(with("hot_small", "rps", 0.88), 0), 1, "hot_small", "rps", verdictWorse)
	check("3% fewer rps", runs(with("hot_small", "rps", 0.97), 0), 0, "hot_small", "rps", verdictWithin)
	check("12% slower p50 on the other workload", runs(with("sim_meiko", "p50_ms", 1.12), 0), 1, "sim_meiko", "p50_ms", verdictWorse)
	check("8% more rps", runs(with("hot_small", "rps", 1.08), 0), 0, "hot_small", "rps", verdictBetter)
	// A demoted metric sits in the result files but not in end_to_end:
	// halving it changes nothing.
	check("demoted metric doubles", runs(with("hot_small", "client.p99_ms", 2), 0), 0, "hot_small", "rps", verdictWithin)
	check("more failures", runs(base, 3), 1, "hot_small", "rps", verdictWithin)

	// Runs that scatter more than the bound cannot settle anything.
	noisy := runs(base, 0)
	for i := range noisy.Runs {
		if noisy.Runs[i].Workload == "hot_small" {
			m := noisy.Runs[i].Output.Metrics["rps"]
			m.Value *= 1 + 0.2*float64(i%5-2)
			noisy.Runs[i].Output.Metrics["rps"] = m
		}
	}
	check("noisy", noisy, 0, "hot_small", "rps", verdictUnresolved)

	// Traced runs carry per-layer metrics only and are never compared.
	traced := runs(with("hot_small", "rps", 0.5), 0)
	for i := range traced.Runs {
		traced.Runs[i].Traced = true
	}
	var buf bytes.Buffer
	compareRuns(compareSpec, runs(base, 0), traced, &buf)
	if row := rowOf(t, buf.String(), "hot_small", "rps"); !strings.HasSuffix(row, "missing") {
		t.Errorf("traced runs were compared: %q", row)
	}
}
