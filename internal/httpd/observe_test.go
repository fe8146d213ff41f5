package httpd

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sweb/internal/httpmsg"
	"sweb/internal/metrics"
	"sweb/internal/storage"
	"sweb/internal/trace"
)

// startSoloNode runs a single-node cluster with one 1 KiB document on disk.
func startSoloNode(t *testing.T, mut func(*Config)) (*Server, string) {
	t.Helper()
	srv, paths := newSoloNode(t, 2, mut)
	srv.Start()
	return srv, paths[0]
}

// newSoloNode builds, but does not start, a one-node cluster holding docs
// 1 KiB documents, and returns it with their paths.
func newSoloNode(t *testing.T, docs int, mut func(*Config)) (*Server, []string) {
	t.Helper()
	st := storage.NewStore(1)
	paths := storage.UniformSet(st, docs, 1024)
	cfg := Config{ID: 0, DocRoot: t.TempDir(), Store: st}
	if mut != nil {
		mut(&cfg)
	}
	for _, p := range paths {
		full := filepath.Join(cfg.DocRoot, filepath.FromSlash(strings.TrimPrefix(p, "/")))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, make([]byte, 1024), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.SetPeers([]Peer{{ID: 0, HTTPAddr: srv.Addr(), UDPAddr: srv.UDPAddr()}})
	return srv, paths
}

// get performs one raw HTTP/1.0 GET against addr.
func get(t *testing.T, addr, path string) (int, []byte) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	req := &httpmsg.Request{Method: "GET", Path: path, Header: httpmsg.Header{}}
	if err := req.Write(conn); err != nil {
		t.Fatal(err)
	}
	resp, err := httpmsg.ReadResponse(bufio.NewReader(conn), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Body
}

func TestStatusEndpoint(t *testing.T) {
	srv, doc := startSoloNode(t, nil)
	if st, _ := get(t, srv.Addr(), doc); st != httpmsg.StatusOK {
		t.Fatalf("document fetch = %d", st)
	}
	status, body := get(t, srv.Addr(), "/sweb/status")
	if status != httpmsg.StatusOK {
		t.Fatalf("/sweb/status = %d", status)
	}
	var rep StatusReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("status payload: %v\n%s", err, body)
	}
	if rep.Node != 0 || rep.Config.Policy != "SWEB" {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Stats.Served < 1 || rep.Stats.Accepted < 1 {
		t.Fatalf("stats = %+v", rep.Stats)
	}
	// Decisions live in /sweb/flight and heat in /sweb/heat: the status
	// report keeps no second copy of either.
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(body, &keys); err != nil {
		t.Fatal(err)
	}
	for _, dup := range []string{"decisions", "heat"} {
		if _, ok := keys[dup]; ok {
			t.Errorf("/sweb/status still carries %q", dup)
		}
	}
	// The decision audit is the flight record: the document fetch, served
	// here, carries its cost table.
	recs := srv.FlightDump().Records
	if len(recs) == 0 || recs[0].Policy == "" {
		t.Fatalf("no decision audit rows in %+v", recs)
	}
	d := recs[0]
	if d.Path != doc || d.Redirected || d.Target != 0 || d.FulfillSeconds < 0 || d.TotalSeconds < 0 {
		t.Fatalf("audit row = %+v", d)
	}
	if len(d.Candidates) == 0 {
		t.Fatal("audit row lost the cost table")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, doc := startSoloNode(t, nil)
	for i := 0; i < 3; i++ {
		if st, _ := get(t, srv.Addr(), doc); st != httpmsg.StatusOK {
			t.Fatalf("document fetch = %d", st)
		}
	}
	get(t, srv.Addr(), "/no/such/file")

	status, body := get(t, srv.Addr(), "/sweb/metrics")
	if status != httpmsg.StatusOK {
		t.Fatalf("/sweb/metrics = %d", status)
	}
	samples, err := metrics.ParseText(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("exposition did not parse: %v\n%s", err, body)
	}
	want := func(name string, labels metrics.Labels, atLeast float64) {
		t.Helper()
		v, ok := metrics.Value(samples, name, labels)
		if !ok || v < atLeast {
			t.Fatalf("%s%v = %v (found=%v), want >= %v", name, labels, v, ok, atLeast)
		}
	}
	want("sweb_events_total", metrics.Labels{"event": "connected"}, 4)
	want("sweb_events_total", metrics.Labels{"event": "sent"}, 3)
	want("sweb_events_total", metrics.Labels{"event": "fetch-local"}, 3)
	want("sweb_phase_seconds_count", metrics.Labels{"phase": "parse"}, 4)
	want("sweb_phase_seconds_count", metrics.Labels{"phase": "fetch_local"}, 3)
	want("sweb_response_seconds_count", nil, 3)
	want("sweb_drops_total", metrics.Labels{"cause": "not_found"}, 1)
	want("sweb_sched_compared_total", nil, 3)
	want("sweb_sched_predicted_seconds_total", metrics.Labels{"phase": "total"}, 0)
	want("sweb_sched_actual_seconds_total", metrics.Labels{"phase": "total"}, 0)
	want("sweb_bytes_out_total", nil, 3*1024)
}

func TestIntrospectionCanBeDisabled(t *testing.T) {
	srv, _ := startSoloNode(t, func(c *Config) { c.DisableIntrospection = true })
	if st, _ := get(t, srv.Addr(), "/sweb/status"); st != httpmsg.StatusNotFound {
		t.Fatalf("disabled introspection answered %d", st)
	}
	if got := srv.Stats().Introspect; got != 0 {
		t.Fatalf("introspect counter = %d", got)
	}
}

func TestIntrospectionUnknownPath(t *testing.T) {
	srv, _ := startSoloNode(t, nil)
	if st, _ := get(t, srv.Addr(), "/sweb/bogus"); st != httpmsg.StatusNotFound {
		t.Fatalf("/sweb/bogus = %d", st)
	}
}

// TestLiveTraceEvents drives a request through a traced node and checks
// the span walks the simulator's lifecycle, renderable by the shared
// renderers.
func TestLiveTraceEvents(t *testing.T) {
	rec := trace.NewRecorder(0)
	srv, doc := startSoloNode(t, func(c *Config) { c.Trace = rec })
	if st, _ := get(t, srv.Addr(), doc); st != httpmsg.StatusOK {
		t.Fatalf("document fetch = %d", st)
	}
	reqs := rec.Requests()
	if len(reqs) != 1 {
		t.Fatalf("traced %d requests, want 1", len(reqs))
	}
	span := rec.Span(reqs[0])
	var kinds []trace.Kind
	for _, e := range span {
		kinds = append(kinds, e.Kind)
	}
	wantOrder := []trace.Kind{trace.EvConnected, trace.EvParsed, trace.EvAnalyzed,
		trace.EvFetchLocal, trace.EvSent}
	if len(kinds) != len(wantOrder) {
		t.Fatalf("span kinds = %v", kinds)
	}
	for i, k := range wantOrder {
		if kinds[i] != k {
			t.Fatalf("span kinds = %v, want %v", kinds, wantOrder)
		}
	}
	if out := trace.RenderSpan(span); !strings.Contains(out, "fetch-local") {
		t.Fatalf("RenderSpan output:\n%s", out)
	}
	sum := trace.Summarize(rec.Events())
	if sum.Requests != 1 || sum.ByKind[trace.EvSent] != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	if _, ok := sum.MeanPhase["parsed→analyzed"]; !ok {
		t.Fatalf("summary lacks parsed→analyzed phase: %+v", sum.MeanPhase)
	}
	// Introspection and internal fetches must never appear in the trace.
	get(t, srv.Addr(), "/sweb/status")
	if got := len(rec.Requests()); got != 1 {
		t.Fatalf("introspection leaked into trace: %d requests", got)
	}
}

func TestStatsDropsAndInflight(t *testing.T) {
	srv, _ := startSoloNode(t, nil)
	get(t, srv.Addr(), "/no/such/file")
	st := srv.Stats()
	if st.NotFound != 1 || st.Drops["not_found"] != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Inflight != 0 {
		t.Fatalf("inflight = %d with no open connections", st.Inflight)
	}
}

// TestTTFBStampedAtHead: a cached 1 KiB hit fits the write buffer whole and
// reaches the wire only at the serve loop's flush, after its books close.
// Its time to first byte is still the instant its head was encoded, the
// first chunk handed to the client as the simulator stamps it: inside the
// request, not at its end.
func TestTTFBStampedAtHead(t *testing.T) {
	srv, doc := startSoloNode(t, nil)
	for i := 0; i < 2; i++ { // a fill, then the hit
		if st, body := get(t, srv.Addr(), doc); st != httpmsg.StatusOK || len(body) != 1024 {
			t.Fatalf("fetch %d = %d, %d bytes", i, st, len(body))
		}
	}
	recs := srv.FlightDump().Records
	hit := recs[len(recs)-1]
	if hit.Path != doc || !hit.CacheHit {
		t.Fatalf("last flight record %+v, want the cached hit of %s", hit, doc)
	}
	if !(0 < hit.TTFBSeconds && hit.TTFBSeconds < hit.TotalSeconds) {
		t.Fatalf("ttfb %g s, total %g s; want 0 < ttfb < total", hit.TTFBSeconds, hit.TotalSeconds)
	}
}
