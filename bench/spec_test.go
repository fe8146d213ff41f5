package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestSpecIsValid(t *testing.T) {
	if err := spec.validate(); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, live := liveDefs[w.Name]; !live && w.Name != wlSimMeiko {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(spec.Workloads) != len(liveDefs)+1 {
		t.Errorf("%d workloads in the spec, %d implemented", len(spec.Workloads), len(liveDefs)+1)
	}
}

func TestValidateRejects(t *testing.T) {
	mutate := func(f func(*benchSpec)) error {
		var s benchSpec
		b, _ := json.Marshal(spec)
		_ = json.Unmarshal(b, &s)
		f(&s)
		return s.validate()
	}
	many := func(n int) []layerSpec {
		out := make([]layerSpec, n)
		for i := range out {
			out[i] = layerSpec{Name: "m" + strings.Repeat("x", i%60) + string(rune('a'+i%26)) + string(rune('a'+i/26%26)), Unit: "ns", Better: lower}
		}
		return out
	}
	for name, f := range map[string]func(*benchSpec){
		"space in a metric name": func(s *benchSpec) { s.PerLayer[0].Name = "client connect" },
		"slash in a metric name": func(s *benchSpec) { s.EndToEnd[0].Name = "req/s" },
		"name used twice":        func(s *benchSpec) { s.PerLayer[1].Name = s.PerLayer[0].Name },
		"metric named as a workload": func(s *benchSpec) {
			s.PerLayer[0].Name = s.Workloads[0].Name
		},
		"65-character name": func(s *benchSpec) { s.Workloads[0].Name = strings.Repeat("w", 65) },
		"nine workloads":    func(s *benchSpec) { s.Workloads = append(s.Workloads, make([]workloadSpec, 5)...) },
		"one workload":      func(s *benchSpec) { s.Workloads = s.Workloads[:1] },
		"17 end-to-end":     func(s *benchSpec) { s.EndToEnd = append(s.EndToEnd, make([]e2eSpec, 9)...) },
		"129 per-layer":     func(s *benchSpec) { s.PerLayer = many(129) },
		"bound above 0.25":  func(s *benchSpec) { s.EndToEnd[0].Bound = 0.3 },
		"no bound":          func(s *benchSpec) { s.EndToEnd[0].Bound = 0 },
		"no setup_s":        func(s *benchSpec) { s.EndToEnd = s.EndToEnd[:len(s.EndToEnd)-1] },
		"bad direction":     func(s *benchSpec) { s.PerLayer[3].Better = "faster" },
		"bad unit":          func(s *benchSpec) { s.PerLayer[3].Unit = "µs" },
		"long why":          func(s *benchSpec) { s.Workloads[0].Why = strings.Repeat("y", 201) },
		"run_seconds 61":    func(s *benchSpec) { s.RunSeconds = 61 },
		"absolute path":     func(s *benchSpec) { s.Paths = []string{"/bench"} },
	} {
		if err := mutate(f); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := mutate(func(s *benchSpec) { s.PerLayer = many(128) }); err != nil {
		t.Errorf("128 per-layer metrics rejected: %v", err)
	}
}

// BENCHMARK.json is `bench -print-spec`; nothing is named in two places.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(b))
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly 6", len(raw))
	}
	var onDisk benchSpec
	if err := json.Unmarshal(b, &onDisk); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, spec) {
		t.Error("BENCHMARK.json differs from the compiled spec; regenerate it with: go -C bench run . -print-spec > BENCHMARK.json")
	}
}
