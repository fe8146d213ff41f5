package nodeobs

import (
	"bytes"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"sweb/internal/core"
	"sweb/internal/flight"
	"sweb/internal/heat"
	"sweb/internal/metrics"
)

func newTestObserver() *Observer {
	zero := func() float64 { return 0 }
	return New(Config{Node: 3, Inflight: zero, Capacity: zero, DiskActive: zero,
		NetActive: zero, BytesOut: zero})
}

// exposition scrapes ob the way /sweb/metrics is read, bucket lines left
// out: which bucket a value lands in is the metrics package's business.
func exposition(t *testing.T, ob *Observer) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := ob.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, s := range samples {
		if !strings.HasSuffix(s.Name, "_bucket") {
			out[s.Key()] = s.Value
		}
	}
	return out
}

// delta is every series new in after or changed since before.
func delta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64)
	for k, v := range after {
		if old, ok := before[k]; !ok || old != v {
			d[k] = v - old
		}
	}
	return d
}

// TestObserve feeds one outcome of each kind both substrates produce to a
// fresh observer and checks all three sinks exactly: the flight record,
// what the exposition gained, and the heat sketch.
func TestObserve(t *testing.T) {
	success := map[string]float64{
		FlightRecords: 1, HeatObservations: 1, HeatTracked: 1,
		Response + "_count": 1, Response + "_sum": 0.5,
		TTFB + "_count": 1, TTFB + "_sum": 0.25,
		HeatRequests + `{path="/a"}`: 1, HeatReplicas + `{path="/a"}`: 1,
	}
	with := func(base map[string]float64, kv map[string]float64) map[string]float64 {
		out := make(map[string]float64, len(base)+len(kv))
		for k, v := range base {
			out[k] = v
		}
		for k, v := range kv {
			out[k] = v
		}
		return out
	}
	record := flight.Record{AtSeconds: 1, ConnID: 7, Path: "/a", Status: 200, Bytes: 1024,
		Policy: "SWEB", Target: 3, ParseSeconds: 0.125, AnalyzeSeconds: 0.0625,
		TTFBSeconds: 0.25, TotalSeconds: 0.5}
	served := Outcome{Record: record, Estimate: 0.75, DoneMicros: 1_500_000,
		Fulfilled: true, Owner: 3, Miss: true, Replicas: 1}
	record.Seq, record.Node, record.PredictedSeconds = 1, 3, 0.75
	entry := heat.Entry{Path: "/a", Owner: 3, Count: 1, Bytes: 1024, Misses: 1, LatencySum: 0.5}

	for _, tc := range []struct {
		name    string
		edit    func(*Outcome)
		record  func(*flight.Record)
		delta   map[string]float64
		entries []heat.Entry
	}{
		{name: "local 200", delta: success, entries: []heat.Entry{entry}},
		{
			name:   "cache-hit 200",
			edit:   func(o *Outcome) { o.CacheHit, o.Miss, o.TraceID = true, false, "cafe" },
			record: func(r *flight.Record) { r.CacheHit, r.TraceID = true, "cafe" },
			delta:  success,
			entries: []heat.Entry{{Path: "/a", Owner: 3, Count: 1, Bytes: 1024,
				LatencySum: 0.5}},
		},
		{
			name: "relay 200",
			edit: func(o *Outcome) { o.Owner, o.Relay, o.Replicas = 1, true, 2 },
			delta: with(success, map[string]float64{
				HeatRelays + `{path="/a"}`: 1, HeatReplicas + `{path="/a"}`: 2}),
			entries: []heat.Entry{{Path: "/a", Owner: 1, Count: 1, Bytes: 1024, Relays: 1,
				Misses: 1, LatencySum: 0.5}},
		},
		{
			name:   "304",
			edit:   func(o *Outcome) { o.Status, o.Bytes, o.Miss = 304, 0, false },
			record: func(r *flight.Record) { r.Status, r.Bytes = 304, 0 },
			delta:  success,
			entries: []heat.Entry{{Path: "/a", Owner: 3, Count: 1,
				LatencySum: 0.5}},
		},
		{
			// A live 404 ends before phase 4 and before the broker ran.
			name: "404",
			edit: func(o *Outcome) {
				*o = Outcome{Record: flight.Record{AtSeconds: 1, ConnID: 7, Path: "/a",
					Status: 404, Bytes: 200, Target: -1, ParseSeconds: 0.125,
					TTFBSeconds: 0.25, TotalSeconds: 0.5}, Estimate: math.Inf(1)}
			},
			record: func(r *flight.Record) {
				*r = flight.Record{Seq: 1, AtSeconds: 1, Node: 3, ConnID: 7, Path: "/a",
					Status: 404, Bytes: 200, Target: -1, PredictedSeconds: -1,
					ParseSeconds: 0.125, TTFBSeconds: 0.25, TotalSeconds: 0.5,
					Notable: flight.NotableError}
			},
			delta: map[string]float64{FlightRecords: 1, FlightNotable: 1},
		},
		{
			// File locality predicts nothing: Estimate 0 is no prediction.
			name: "302",
			edit: func(o *Outcome) {
				o.Status, o.Bytes, o.Redirected, o.Target, o.Estimate = 302, 300, true, 1, 0
				o.Fulfilled = false
			},
			record: func(r *flight.Record) {
				r.Status, r.Bytes, r.Redirected, r.Target, r.PredictedSeconds = 302, 300, true, 1, -1
			},
			delta: map[string]float64{FlightRecords: 1},
		},
		{
			name: "write failed",
			edit: func(o *Outcome) { o.Status, o.Bytes = 0, 512 },
			record: func(r *flight.Record) {
				r.Status, r.Bytes, r.Notable = 0, 512, flight.NotableError
			},
			delta: map[string]float64{FlightRecords: 1, FlightNotable: 1},
		},
		{
			name: "sim timeout",
			edit: func(o *Outcome) {
				o.Status, o.Estimate, o.TTFBSeconds, o.TotalSeconds = 0, math.NaN(), 1, 130
			},
			record: func(r *flight.Record) {
				r.Status, r.PredictedSeconds, r.TTFBSeconds, r.TotalSeconds = 0, -1, 1, 130
				r.Notable = flight.NotableError
			},
			delta: map[string]float64{FlightRecords: 1, FlightNotable: 1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, want := served, record
			if tc.edit != nil {
				tc.edit(&o)
			}
			if tc.record != nil {
				tc.record(&want)
			}
			ob := newTestObserver()
			before := exposition(t, ob)
			ob.Observe(o)

			d := ob.FlightDump()
			if len(d.Records) != 1 || d.Records[0] != want {
				t.Errorf("flight records = %+v, want [%+v]", d.Records, want)
			}
			if got := delta(before, exposition(t, ob)); !reflect.DeepEqual(got, tc.delta) {
				t.Errorf("exposition delta = %v, want %v", got, tc.delta)
			}
			h := ob.HeatDump()
			if h.Node != 3 || len(h.Entries) != len(tc.entries) ||
				(len(tc.entries) > 0 && !reflect.DeepEqual(h.Entries, tc.entries)) {
				t.Errorf("heat entries = %+v, want %+v", h.Entries, tc.entries)
			}
		})
	}
}

// TestObserveAllocatesNothing guards the cached-hit path: recording an
// untraced success for a path the observer has already seen must not
// touch the heap.
func TestObserveAllocatesNothing(t *testing.T) {
	ob := newTestObserver()
	o := Outcome{Record: flight.Record{Path: "/hot", Status: 200, Bytes: 1024, Target: 3,
		Policy: "SWEB", TTFBSeconds: 0.001, TotalSeconds: 0.002},
		Fulfilled: true, Owner: 3, Replicas: 1}
	ob.Observe(o)
	if n := testing.AllocsPerRun(1000, func() { ob.Observe(o) }); n != 0 {
		t.Fatalf("Observe allocates %v times per call, want 0", n)
	}
}

// TestObserveConcurrent feeds one observer from several goroutines while
// it is scraped, the way a live node's connections and /sweb/* readers
// share it; run under -race it guards the sinks' locking, and the totals
// must come out exact.
func TestObserveConcurrent(t *testing.T) {
	ob := newTestObserver()
	const workers, each = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o := Outcome{Record: flight.Record{Path: "/p" + strings.Repeat("x", w), Status: 200,
				TotalSeconds: 0.001}, Fulfilled: true, Replicas: 1}
			for i := 0; i < each; i++ {
				ob.Observe(o)
				ob.Event("sent")
				ob.Prediction(core.Decision{Estimate: 0.001}, 0, 0, 0.001)
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		exposition(t, ob)
		ob.FlightDump()
		ob.HeatDump()
	}
	wg.Wait()
	got := exposition(t, ob)
	for name, want := range map[string]float64{
		FlightRecords: workers * each, HeatObservations: workers * each, HeatTracked: workers,
		Response + "_count": workers * each, Events + `{event="sent"}`: workers * each,
		SchedCompared: workers * each,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}

// TestPrediction pins the three ways a decision is scored: per t_s phase
// against this node's feasible cost row, whole-t_s from a scalar
// estimate, and not at all without a finite non-negative one.
func TestPrediction(t *testing.T) {
	rows := make([]core.CostBreakdown, 4)
	rows[3] = core.CostBreakdown{Node: 3, CPU: 0.25, Data: 0.5, Net: 0.125, Total: 1}
	for _, tc := range []struct {
		name string
		dec  core.Decision
		want map[string]float64
	}{
		{"cost row", core.Decision{Estimate: 9, Candidates: rows}, map[string]float64{
			SchedPredicted + `{phase="cpu"}`: 0.25, SchedActual + `{phase="cpu"}`: 0.5,
			SchedPredicted + `{phase="data"}`: 0.625, SchedActual + `{phase="data"}`: 1,
			SchedPredicted + `{phase="total"}`: 1, SchedActual + `{phase="total"}`: 1.5,
			SchedCompared: 1, SchedAbsError + "_count": 1, SchedAbsError + "_sum": 0.5,
		}},
		{"scalar", core.Decision{Estimate: 2}, map[string]float64{
			SchedPredicted + `{phase="total"}`: 2, SchedActual + `{phase="total"}`: 1.5,
			SchedCompared: 1, SchedAbsError + "_count": 1, SchedAbsError + "_sum": 0.5,
		}},
		{"zero is compared", core.Decision{Estimate: 0}, map[string]float64{
			SchedPredicted + `{phase="total"}`: 0, SchedActual + `{phase="total"}`: 1.5,
			SchedCompared: 1, SchedAbsError + "_count": 1, SchedAbsError + "_sum": 1.5,
		}},
		{"infinite", core.Decision{Estimate: math.Inf(1)}, map[string]float64{}},
		{"negative", core.Decision{Estimate: -1}, map[string]float64{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ob := newTestObserver()
			before := exposition(t, ob)
			ob.Prediction(tc.dec, 0.5, 1, 1.5)
			if got := delta(before, exposition(t, ob)); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("exposition delta = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestHeatSeriesBoundedBySketch feeds 10,000 distinct paths (and one hot
// path among them) through one observer: each per-path family exposes at
// most K series, the hot path, never evicted, reports exactly what it
// served and relayed, and a path evicted early that comes back restarts
// its count at 1.
func TestHeatSeriesBoundedBySketch(t *testing.T) {
	ob := newTestObserver()
	serve := func(path string, relay bool) {
		o := Outcome{Record: flight.Record{Path: path, Status: 200, Bytes: 1, TTFBSeconds: -1,
			TotalSeconds: 0.001}, Fulfilled: true, Owner: 0, Relay: relay, Replicas: 2}
		ob.Observe(o)
	}
	var hotServed, hotRelayed int
	for i := 0; i < 10000; i++ {
		if i%4 == 0 {
			relay := i%8 == 0
			serve("/hot", relay)
			hotServed++
			if relay {
				hotRelayed++
			}
		}
		serve("/cold/"+strconv.Itoa(i), i%2 == 1)
	}
	serve("/cold/1", false) // relayed once before its eviction

	exp := exposition(t, ob)
	for _, fam := range []string{HeatRequests, HeatRelays, HeatReplicas} {
		n := 0
		for k := range exp {
			if strings.HasPrefix(k, fam+"{") {
				n++
			}
		}
		if n == 0 || n > heat.DefaultK {
			t.Errorf("%s: %d series, want 1..%d", fam, n, heat.DefaultK)
		}
	}
	for key, want := range map[string]float64{
		HeatRequests + `{path="/hot"}`:    float64(hotServed),
		HeatRelays + `{path="/hot"}`:      float64(hotRelayed),
		HeatReplicas + `{path="/hot"}`:    2,
		HeatRequests + `{path="/cold/1"}`: 1,
		HeatReplicas + `{path="/cold/1"}`: 2,
	} {
		if got, ok := exp[key]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	if _, ok := exp[HeatRelays+`{path="/cold/1"}`]; ok {
		t.Errorf("re-admitted /cold/1 kept a relay series from before its eviction")
	}
	if _, ok := exp[HeatRequests+`{path="/cold/3"}`]; ok {
		t.Errorf("evicted /cold/3 still exposes its request series")
	}
}
