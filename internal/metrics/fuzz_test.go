package metrics

import (
	"math"
	"strings"
	"testing"
)

// metricName maps s onto the metric-name alphabet [a-zA-Z_:][a-zA-Z0-9_:]*,
// so every fuzzed string names a family.
func metricName(s string) string {
	b := []byte("m_")
	for _, c := range []byte(s) {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b = append(b, c)
		default:
			b = append(b, '_')
		}
	}
	return string(b)
}

// FuzzExpositionRoundTrip builds a registry from a fuzzed family name,
// label values and finite values — a counter, a gauge with two labels, a
// histogram with an exemplar and a collector — and requires what WriteText
// renders to parse back through ParseText to exactly the samples the
// registry holds, exemplar included. ParseText must also survive the
// fuzzed strings themselves as an exposition.
func FuzzExpositionRoundTrip(f *testing.F) {
	f.Add("sweb_events", "parse", "/docs/a.html", "cafe", 1.0, 0.25)
	f.Add("x", `quote"inside`, `back\slash`, "new\nline", -3.5, 1e300)
	f.Add("a:b", "trailing\\", "}{", `tr"ace}`, 0.0, -0.0)
	f.Add("ok", "a=\"1\",b=\"2\"", "v # {x=\"y\"} 1 2", "\r\t ", 5e-324, 2.5)
	f.Add("m 1", "", "комета", "", 1e-9, 10.0)
	f.Fuzz(func(t *testing.T, name, va, vb, traceID string, x, y float64) {
		for _, text := range []string{name, va, vb, traceID, name + "{" + va + "} " + vb} {
			_, _ = ParseText(strings.NewReader(text))
		}
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			return
		}
		name = metricName(name)
		reg := NewRegistry()
		want := make(map[string]float64)
		put := func(fam string, l Labels, v float64) { want[Sample{Name: fam, Labels: l}.Key()] = v }

		reg.Counter(name+"_total", "fuzzed counter", Labels{"a": va}).Add(x)
		put(name+"_total", Labels{"a": va}, x)
		reg.Gauge(name, "fuzzed gauge", Labels{"a": va, "b": vb}).Set(y)
		put(name, Labels{"a": va, "b": vb}, y)
		reg.Collector(name+"_paths", "fuzzed collector", "gauge", "path",
			func(emit func(string, float64)) { emit(vb, y) })
		put(name+"_paths", Labels{"path": vb}, y)
		h := reg.Histogram(name+"_seconds", "fuzzed histogram", Labels{"b": vb}, []float64{-1, 0, 1})
		h.ObserveExemplar(x, traceID, 7)
		for _, le := range []struct {
			bound string
			le    float64
		}{{"-1", -1}, {"0", 0}, {"1", 1}, {"+Inf", math.Inf(1)}} {
			n := 0.0
			if x <= le.le {
				n = 1
			}
			put(name+"_seconds_bucket", Labels{"b": vb, "le": le.bound}, n)
		}
		put(name+"_seconds_sum", Labels{"b": vb}, x)
		put(name+"_seconds_count", Labels{"b": vb}, 1)

		var buf strings.Builder
		if err := reg.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		samples, err := ParseText(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
		}
		exemplars := 0
		for _, s := range samples {
			w, ok := want[s.Key()]
			if !ok || s.Value != w {
				t.Fatalf("sample %s = %v (expected %v, known %v)\n%s", s.Key(), s.Value, w, ok, buf.String())
			}
			delete(want, s.Key())
			if ex := s.Exemplar; ex != nil {
				exemplars++
				if ex.TraceID != traceID || ex.Value != x || ex.TSMicros != 7 {
					t.Fatalf("exemplar %+v on %s, want trace %q value %v at 7\n%s", *ex, s.Key(), traceID, x, buf.String())
				}
			}
		}
		if len(want) > 0 {
			t.Fatalf("samples lost in the round trip: %v\n%s", want, buf.String())
		}
		if wantEx := min(len(traceID), 1); exemplars != wantEx {
			t.Fatalf("%d exemplars round-tripped, want %d\n%s", exemplars, wantEx, buf.String())
		}
	})
}
