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

	"sweb/internal/core"
	"sweb/internal/httpmsg"
	"sweb/internal/metrics"
	"sweb/internal/storage"
	"sweb/internal/trace"
)

// startSoloNode runs a single-node cluster with one 1 KiB document on disk.
func startSoloNode(t *testing.T, mut func(*Config)) (*Server, string) {
	t.Helper()
	st := storage.NewStore(1)
	paths := storage.UniformSet(st, 2, 1024)
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
	srv.Start()
	return srv, paths[0]
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
	if len(rep.Decisions) == 0 {
		t.Fatal("no decision audit rows")
	}
	d := rep.Decisions[0]
	if d.Path != doc || d.Redirected || d.Target != 0 || d.ActualSeconds < 0 {
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

func TestAuditRingWraps(t *testing.T) {
	a := newAuditLog(4)
	for i := 0; i < 10; i++ {
		a.add(DecisionAudit{Path: "/p", Target: i}, []core.CostBreakdown{{Node: i}})
	}
	got := a.snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot len = %d", len(got))
	}
	// The ring rewrites each slot's candidate table in place; a snapshot
	// already handed out must not see the decisions that follow it.
	for i := 10; i < 14; i++ {
		a.add(DecisionAudit{Path: "/p", Target: i}, []core.CostBreakdown{{Node: i}})
	}
	for i, d := range got {
		if d.Target != 6+i || d.Seq != int64(7+i) || len(d.Candidates) != 1 || d.Candidates[0].Node != 6+i {
			t.Fatalf("snapshot[%d] = %+v", i, d)
		}
	}
}
