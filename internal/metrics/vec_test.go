package metrics

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestVecIsLazy: resolving a handle registers nothing — neither a series
// nor the family's HELP/TYPE lines — until a label value is first used.
func TestVecIsLazy(t *testing.T) {
	reg := NewRegistry()
	events := reg.CounterVec("sweb_events_total", "events", "event")
	phases := reg.HistogramVec("sweb_phase_seconds", "phases", "phase", nil)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("handles alone exposed:\n%s", buf.String())
	}
	events.With("sent").Inc()
	phases.With("parse").Observe(0.001)
	buf.Reset()
	_ = reg.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{
		"# HELP sweb_events_total events\n# TYPE sweb_events_total counter\nsweb_events_total{event=\"sent\"} 1\n",
		"sweb_phase_seconds_count{phase=\"parse\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "redirected") {
		t.Errorf("an unused value was pre-registered:\n%s", out)
	}
}

// TestVecSharesSeriesWithRegistry: the handle and a Labels look-up reach
// the same instance, hostile label values included.
func TestVecSharesSeriesWithRegistry(t *testing.T) {
	reg := NewRegistry()
	vec := reg.CounterVec("c_total", "help", "path")
	for _, v := range []string{"plain", `quo"te`, "new\nline", `back\slash`, ""} {
		vec.With(v).Add(2)
		if c := reg.Counter("c_total", "help", Labels{"path": v}); c != vec.With(v) || c.Value() != 2 {
			t.Errorf("value %q: handle and registry disagree", v)
		}
	}
}

// TestVecTwoLabels: the two-label handle renders the same signature the
// registry does, whatever order the label names sort in.
func TestVecTwoLabels(t *testing.T) {
	reg := NewRegistry()
	vec := reg.CounterVec2("f_total", "help", "source", "path") // given unsorted
	vec.With([2]string{"1", "/a.html"}).Inc()
	if c := reg.Counter("f_total", "help", Labels{"path": "/a.html", "source": "1"}); c.Value() != 1 {
		t.Fatal("handle and registry reached different series")
	}
	var buf bytes.Buffer
	_ = reg.WriteText(&buf)
	if want := `f_total{path="/a.html",source="1"} 1`; !strings.Contains(buf.String(), want) {
		t.Fatalf("exposition lacks %s:\n%s", want, buf.String())
	}
}

func TestVecWithAllocatesNothing(t *testing.T) {
	reg := NewRegistry()
	events := reg.CounterVec("sweb_events_total", "events", "event")
	phases := reg.HistogramVec("sweb_phase_seconds", "phases", "phase", nil)
	fetches := reg.CounterVec2("sweb_replica_fetch_total", "fetches", "path", "source")
	events.With("sent").Inc()
	phases.With("parse").Observe(0.001)
	fetches.With([2]string{"/a.html", "1"}).Inc()
	if n := testing.AllocsPerRun(1000, func() {
		events.With("sent").Inc()
		phases.With("parse").Observe(0.001)
		fetches.With([2]string{"/a.html", "1"}).Inc()
	}); n != 0 {
		t.Fatalf("%v allocations per resolved With, want 0", n)
	}
}

// TestVecConcurrentFirstUse: racing first uses of one value settle on one
// series and lose no increment.
func TestVecConcurrentFirstUse(t *testing.T) {
	reg := NewRegistry()
	vec := reg.CounterVec("c_total", "help", "k")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				vec.With("v").Inc()
				vec.With(string(rune('a' + i%5))).Inc()
			}
		}()
	}
	wg.Wait()
	if got := vec.With("v").Value(); got != 4000 {
		t.Fatalf("v = %v, want 4000", got)
	}
}
