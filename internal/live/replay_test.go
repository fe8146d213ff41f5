package live

import (
	"bytes"
	"testing"
	"time"

	"sweb/internal/accesslog"
	"sweb/internal/core"
	"sweb/internal/httpd"
	"sweb/internal/simsrv"
	"sweb/internal/storage"
	"sweb/internal/workload"
)

// TestAccessLogCapturedAndReplayable drives the live cluster, collects its
// Common Log Format access logs, and replays the trace through the
// simulator — the full production-trace-to-model loop.
func TestAccessLogCapturedAndReplayable(t *testing.T) {
	const nodes = 2
	st := storage.NewStore(nodes)
	paths := storage.UniformSet(st, 4, 4096)
	if err := Materialize(st, t.TempDir(), 1); err != nil {
		t.Fatal(err)
	}

	// Build the cluster by hand so every node shares one access log.
	var logBuf bytes.Buffer
	logger := accesslog.NewLogger(&logBuf)
	dir := t.TempDir()
	if err := Materialize(st, dir, 1); err != nil {
		t.Fatal(err)
	}
	var servers []*httpd.Server
	for i := 0; i < nodes; i++ {
		srv, err := httpd.New(httpd.Config{
			ID: i, DocRoot: nodeDocRoot(dir, i), Store: st, AccessLog: logger,
		})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		defer srv.Close()
	}
	var peers []httpd.Peer
	for i, srv := range servers {
		peers = append(peers, httpd.Peer{ID: i, HTTPAddr: srv.Addr(), UDPAddr: srv.UDPAddr()})
	}
	for _, srv := range servers {
		srv.SetPeers(peers)
		srv.Start()
	}

	// Drive some traffic directly at both nodes.
	for i := 0; i < 8; i++ {
		addr := servers[i%nodes].Addr()
		if status, _, _ := directGet(t, addr, paths[i%len(paths)]); status != 200 {
			t.Fatalf("fetch %d: status=%d", i, status)
		}
	}
	if err := logger.Flush(); err != nil {
		t.Fatal(err)
	}

	entries, err := accesslog.Parse(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatalf("parse live log: %v", err)
	}
	if len(entries) < 8 {
		t.Fatalf("log has %d entries, want >= 8", len(entries))
	}
	for _, e := range entries {
		if e.Status != 200 || e.Bytes != 4096 {
			t.Fatalf("unexpected log entry: %+v", e)
		}
	}

	// Replay the captured trace through the simulator.
	arrivals, err := workload.FromAccessLog(entries)
	if err != nil {
		t.Fatal(err)
	}
	cfg := simsrv.MeikoConfig(nodes, st)
	cl, err := simsrv.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := cl.RunSchedule(arrivals)
	if res.Completed != int64(len(arrivals)) {
		t.Fatalf("replay completed %d of %d", res.Completed, len(arrivals))
	}
}

// TestAccessLogRecordsErrorsAndRedirects exercises the non-200 log paths.
func TestAccessLogRecordsErrorsAndRedirects(t *testing.T) {
	st := storage.NewStore(2)
	storage.UniformSet(st, 2, 1024)
	var logBuf bytes.Buffer
	logger := accesslog.NewLogger(&logBuf)
	dir := t.TempDir()
	if err := Materialize(st, dir, 2); err != nil {
		t.Fatal(err)
	}
	var servers []*httpd.Server
	for i := 0; i < 2; i++ {
		srv, err := httpd.New(httpd.Config{
			ID: i, DocRoot: nodeDocRoot(dir, i), Store: st,
			Policy:    core.FileLocality{P: core.DefaultParams()},
			AccessLog: logger,
		})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		defer srv.Close()
	}
	var peers []httpd.Peer
	for i, srv := range servers {
		peers = append(peers, httpd.Peer{ID: i, HTTPAddr: srv.Addr(), UDPAddr: srv.UDPAddr()})
	}
	for _, srv := range servers {
		srv.SetPeers(peers)
		srv.Start()
	}
	// Node 0 redirects only to a peer it has heard; until then it relays.
	for end := time.Now().Add(5 * time.Second); len(servers[0].Table().Known()) < 2; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("node 0 knows only %v after 5s", servers[0].Table().Known())
		}
	}
	// 404.
	if status, _, _ := directGet(t, servers[0].Addr(), "/nope"); status != 404 {
		t.Fatalf("status=%d", status)
	}
	// 302: ask node 0 for a file owned by node 1 under file locality.
	var owned1 string
	for _, p := range st.Paths() {
		if o, _ := st.Owner(p); o == 1 {
			owned1 = p
		}
	}
	if status, _, _ := directGet(t, servers[0].Addr(), owned1); status != 302 {
		t.Fatalf("status=%d", status)
	}
	if err := logger.Flush(); err != nil {
		t.Fatal(err)
	}
	entries, err := accesslog.Parse(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var saw404, saw302 bool
	for _, e := range entries {
		saw404 = saw404 || e.Status == 404
		saw302 = saw302 || e.Status == 302
	}
	if !saw404 || !saw302 {
		t.Fatalf("log missing error/redirect entries: %+v", entries)
	}
}
