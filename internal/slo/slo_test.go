package slo

import (
	"math"
	"strings"
	"testing"

	"sweb/internal/metrics"
)

func TestParseObjectives(t *testing.T) {
	objs, err := ParseObjectives("avail=99.9, p99=250ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("parsed %d objectives, want 2", len(objs))
	}
	if objs[0].Name != "avail" || math.Abs(objs[0].Target-0.999) > 1e-12 || objs[0].IsLatency() {
		t.Errorf("avail parsed as %+v", objs[0])
	}
	if objs[1].Name != "p99" || objs[1].Target != 0.99 || objs[1].Threshold != 0.25 {
		t.Errorf("p99 parsed as %+v", objs[1])
	}
	if objs, err = ParseObjectives("p999=1s"); err != nil || len(objs) != 1 ||
		objs[0] != (Objective{Name: "p999", Target: 0.999, Threshold: 1}) {
		t.Errorf("p999: objs=%+v err=%v", objs, err)
	}
	for _, bad := range []string{"", "avail", "avail=0", "avail=100", "p99=0s", "px=1s", "latency=5ms", "p99=fast"} {
		if _, err := ParseObjectives(bad); err == nil {
			t.Errorf("ParseObjectives(%q) accepted", bad)
		}
	}
}

// scrape is one cumulative exposition: successes plus one drop cause.
func scrape(resp, drops float64) []metrics.Sample {
	return []metrics.Sample{
		{Name: "sweb_response_seconds_count", Value: resp},
		{Name: "sweb_drops_total", Labels: metrics.Labels{"cause": "owner_unreachable"}, Value: drops},
	}
}

// TestAvailabilityCounts pins the counting rule: successes are good, and
// server-fault drops are errors while client-attributable ones are not
// charged at all.
func TestAvailabilityCounts(t *testing.T) {
	o := Objective{Name: "avail", Target: 0.9}
	c := FromSamples(scrape(40, 6), o)
	if c.Good != 40 || c.Total != 46 || c.Errors() != 6 {
		t.Fatalf("counts = %+v, want good 40 total 46", c)
	}
	samples := append(scrape(100, 5),
		metrics.Sample{Name: "sweb_drops_total", Labels: metrics.Labels{"cause": "not_found"}, Value: 7},
		metrics.Sample{Name: "sweb_drops_total", Labels: metrics.Labels{"cause": "bad_request"}, Value: 3})
	if c := FromSamples(samples, o); c.Good != 100 || c.Total != 105 {
		t.Fatalf("counts = %+v, want good 100 total 105 (client causes excluded)", c)
	}
}

// TestEmptyAndShortWindows pins the no-data semantics: zero traffic means
// zero burn, and a node reporting at its first instant (a zero-length
// window) is met with its whole budget left.
func TestEmptyAndShortWindows(t *testing.T) {
	o := Objective{Name: "avail", Target: 0.999}
	if c := FromSamples(nil, o); c.Total != 0 || c.ErrorRatio() != 0 {
		t.Fatalf("empty scrape counts %+v", c)
	}
	r := EvaluateSamples(nil, []Objective{o}, "node0", 0, 0)
	if r.Breached() || len(r.Objectives) != 1 {
		t.Fatalf("empty report = %+v", r)
	}
	if s := r.Objectives[0]; !s.Met || s.BurnRate != 0 || s.BudgetRemaining != 1 {
		t.Fatalf("empty status = %+v", s)
	}
}

// latencySamples exposes a real histogram through WriteText and ParseText,
// so bucket series carry genuine cumulative structure.
func latencySamples(t *testing.T, values []float64) []metrics.Sample {
	t.Helper()
	reg := metrics.NewRegistry()
	h := reg.Histogram("sweb_response_seconds", "t", nil, []float64{0.1, 0.2, 0.4})
	reg.Counter("sweb_drops_total", "t", metrics.Labels{"cause": "timeout"})
	for _, v := range values {
		h.Observe(v)
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestLatencyThresholdRounding pins the documented conservative rule: a
// threshold between histogram edges rounds DOWN to the nearest edge, and
// one below the smallest edge counts nothing as good.
func TestLatencyThresholdRounding(t *testing.T) {
	// 6 observations: 3 at 0.05 (≤0.1), 2 at 0.15 (≤0.2), 1 at 0.3 (≤0.4).
	samples := latencySamples(t, []float64{0.05, 0.15, 0.05, 0.3, 0.15, 0.05})

	cases := []struct {
		threshold float64
		wantGood  float64
	}{
		{0.2, 5},  // exact edge: includes the 0.2 bucket
		{0.3, 5},  // between 0.2 and 0.4: rounds down to 0.2
		{0.39, 5}, // still below the 0.4 edge
		{0.4, 6},  // exact top edge
		{9.9, 6},  // above all edges: every success is provably under
		{0.05, 0}, // below the smallest edge: nothing provable
		{0.1, 3},  // smallest edge exactly
	}
	for _, tc := range cases {
		o := Objective{Name: "p99", Target: 0.5, Threshold: tc.threshold}
		c := FromSamples(samples, o)
		if c.Total != 6 {
			t.Fatalf("threshold %v: total = %v, want 6", tc.threshold, c.Total)
		}
		if c.Good != tc.wantGood {
			t.Errorf("threshold %v: good = %v, want %v", tc.threshold, c.Good, tc.wantGood)
		}
	}
}

// TestEvaluateAndRender covers the report plumbing: a healthy scrape
// evaluates to a met objective and renders as ok.
func TestEvaluateAndRender(t *testing.T) {
	objs := []Objective{{Name: "avail", Target: 0.999}}
	r := EvaluateSamples(scrape(100, 0), objs, "node0", 2, 2)
	if r.Breached() {
		t.Fatalf("healthy report breached: %+v", r)
	}
	if len(r.Objectives) != 1 || r.Objectives[0].Good != 100 {
		t.Fatalf("objectives = %+v", r.Objectives)
	}
	text := Render(r)
	for _, want := range []string{"SLO node0", "avail", "ok"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}
}

// TestBurnRateAndRules pins the budget arithmetic and the rule that reads
// it: an error ratio five times the budget burns at 5x, overdraws the
// budget, breaches the report, and the rendered panel says so.
func TestBurnRateAndRules(t *testing.T) {
	// 50% errors against a 10% budget: burn 5.
	o := Objective{Name: "avail", Target: 0.9}
	r := EvaluateSamples(scrape(20, 20), []Objective{o}, "node0", 4, 4)
	s := r.Objectives[0]
	if math.Abs(s.BurnRate-5) > 1e-9 || math.Abs(s.BudgetRemaining+4) > 1e-9 || s.Met || !r.Breached() {
		t.Fatalf("status = %+v, want burn 5 and budget -400%%", s)
	}
	if text := Render(r); !strings.Contains(text, "BREACH") {
		t.Fatalf("render of a breach lacks BREACH:\n%s", text)
	}
}
