package metrics

import (
	"bytes"
	"strings"
	"testing"
)

// TestCollectorExposesSortedSeries: a collector's series come out sorted by
// label signature whatever order the callback emits them in, hostile label
// values escaped, byte-identical to the same values held by plain counters;
// a collector that emits nothing leaves its family out.
func TestCollectorExposesSortedSeries(t *testing.T) {
	values := map[string]float64{"/b": 2, "/a": 1, "/a!": 4, `quo"te`: 3, "new\nline": 5, "": 6}
	order := []string{"/b", `quo"te`, "/a", "new\nline", "/a!", ""}

	coll, plain := NewRegistry(), NewRegistry()
	var live []string
	coll.Collector("c_total", "per-path help", "counter", "path", func(emit func(string, float64)) {
		for _, p := range live {
			emit(p, values[p])
		}
	})
	var buf bytes.Buffer
	if err := coll.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("an empty collector exposed:\n%s", buf.String())
	}

	live = order
	for _, p := range order {
		plain.Counter("c_total", "per-path help", Labels{"path": p}).Add(values[p])
	}
	var got, want bytes.Buffer
	if err := coll.WriteText(&got); err != nil {
		t.Fatal(err)
	}
	if err := plain.WriteText(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("collector exposition\n%s\nplain counters\n%s", got.String(), want.String())
	}
	if !strings.HasPrefix(got.String(), "# HELP c_total per-path help\n# TYPE c_total counter\n") {
		t.Fatalf("collector family header:\n%s", got.String())
	}
}

// TestCollectorFamilyTakesNoOtherSeries: once a family is a collector's,
// any other way of registering a series on it panics, and so does a
// collector on a family that already has series.
func TestCollectorFamilyTakesNoOtherSeries(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	reg := NewRegistry()
	none := func(func(string, float64)) {}
	reg.Collector("c_total", "", "counter", "path", none)
	reg.Collector("g", "", "gauge", "path", none)
	mustPanic("Counter", func() { reg.Counter("c_total", "", Labels{"path": "/a"}) })
	mustPanic("CounterFunc", func() { reg.CounterFunc("c_total", "", nil, func() float64 { return 0 }) })
	mustPanic("CounterVec", func() { reg.CounterVec("c_total", "", "path").With("/a") })
	mustPanic("Gauge", func() { reg.Gauge("g", "", nil) })
	mustPanic("GaugeFunc", func() { reg.GaugeFunc("g", "", nil, func() float64 { return 0 }) })
	mustPanic("second collector", func() { reg.Collector("c_total", "", "counter", "path", none) })
	reg.Counter("plain_total", "", Labels{"path": "/a"})
	mustPanic("collector over series", func() { reg.Collector("plain_total", "", "counter", "path", none) })
	mustPanic("histogram collector", func() { reg.Collector("h", "", "histogram", "path", none) })
}
