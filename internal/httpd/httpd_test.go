package httpd

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sweb/internal/core"
	"sweb/internal/loadd"
	"sweb/internal/storage"
)

func testConfig(t *testing.T) Config {
	st := storage.NewStore(2)
	storage.UniformSet(st, 2, 1024)
	return Config{ID: 0, DocRoot: t.TempDir(), Store: st}
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Store = nil },
		func(c *Config) { c.DocRoot = "" },
	}
	for i, mut := range cases {
		cfg := testConfig(t)
		mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := testConfig(t)
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	if cfg.Policy == nil || cfg.Oracle == nil {
		t.Fatal("policy/oracle defaults missing")
	}
	if cfg.LoaddPeriod != 2500*time.Millisecond || cfg.LoaddTimeout != 8*time.Second {
		t.Fatalf("loadd defaults: %v %v", cfg.LoaddPeriod, cfg.LoaddTimeout)
	}
	if cfg.MaxConcurrent != 256 {
		t.Fatalf("max concurrent = %d", cfg.MaxConcurrent)
	}
}

func TestNewBindsEphemeralPorts(t *testing.T) {
	srv, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Addr() == "" || srv.UDPAddr() == "" {
		t.Fatal("addresses not bound")
	}
	if srv.ID() != 0 {
		t.Fatalf("id = %d", srv.ID())
	}
	if !strings.Contains(srv.Addr(), "127.0.0.1:") {
		t.Fatalf("addr = %q", srv.Addr())
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	srv, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	srv.Close()
	srv.Close() // second close must not panic or deadlock
}

func TestParseRedirectCount(t *testing.T) {
	cases := map[string]int{
		"":                0,
		"swebr=1":         1,
		"swebr=3":         3,
		"x=2&swebr=2&y=1": 2,
		"swebr=bogus":     0,
		"swebr=-1":        0,
		"other=5":         0,
	}
	for in, want := range cases {
		if got := parseRedirectCount(in); got != want {
			t.Errorf("parseRedirectCount(%q) = %d want %d", in, got, want)
		}
	}
}

func TestLocalPathStaysInDocroot(t *testing.T) {
	cfg := testConfig(t)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	got := srv.localPath("/a/b.html")
	want := filepath.Join(cfg.DocRoot, "a", "b.html")
	if got != want {
		t.Fatalf("localPath = %q want %q", got, want)
	}
}

func TestSnapshotLoadsSelfRowIsLive(t *testing.T) {
	srv, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetPeers([]Peer{{ID: 0, HTTPAddr: srv.Addr(), UDPAddr: srv.UDPAddr()}, {ID: 1, HTTPAddr: "x", UDPAddr: "y"}})
	srv.reqActive.Store(5)
	loads := srv.snapshotLoads()
	if len(loads) != 2 {
		t.Fatalf("len = %d", len(loads))
	}
	if !loads[0].Available || loads[0].CPULoad != 5 {
		t.Fatalf("self row = %+v", loads[0])
	}
	if loads[1].Available {
		t.Fatal("peer without broadcasts should be unavailable")
	}
}

func TestRegisterCGI(t *testing.T) {
	srv, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.RegisterCGI("/cgi-bin/x.cgi", func(q string, b []byte) ([]byte, string) { return nil, "" })
	if _, ok := srv.cgiFor("/cgi-bin/x.cgi"); !ok {
		t.Fatal("registered CGI not found")
	}
	if _, ok := srv.cgiFor("/other"); ok {
		t.Fatal("phantom CGI")
	}
}

func TestSampleReflectsConfig(t *testing.T) {
	cfg := testConfig(t)
	cfg.ID = 1
	cfg.CPUOpsPerSec = 11
	cfg.DiskBytesPerSec = 22
	cfg.NetBytesPerSec = 33
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	s := srv.sample()
	if s.Node != 1 || s.CPUOpsPerSec != 11 || s.DiskBytesPerSec != 22 || s.NetBytesPerSec != 33 {
		t.Fatalf("sample = %+v", s)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRedirectLocationPreservesQuery(t *testing.T) {
	cases := []struct {
		query string
		want  string
	}{
		{"", "http://h:1/doc?swebr=1"},
		{"x=1", "http://h:1/doc?x=1&swebr=1"},
		{"x=1&y=2", "http://h:1/doc?x=1&y=2&swebr=1"},
		// An existing counter is replaced, not duplicated.
		{"swebr=0&x=1", "http://h:1/doc?x=1&swebr=1"},
		{"x=1&swebr=3", "http://h:1/doc?x=1&swebr=1"},
	}
	for _, c := range cases {
		if got := redirectLocation("h:1", "/doc", c.query, 0, ""); got != c.want {
			t.Errorf("redirectLocation(%q) = %q want %q", c.query, got, c.want)
		}
	}
	// The counter value tracks the redirect count.
	if got := redirectLocation("h:1", "/doc", "a=b", 2, ""); got != "http://h:1/doc?a=b&swebr=3" {
		t.Errorf("redirect count: %q", got)
	}
	// A trace context rides along after the counter; an inbound one is
	// replaced, not duplicated.
	if got := redirectLocation("h:1", "/doc", "a=b&swebt=old:5", 0, "abcd:99"); got != "http://h:1/doc?a=b&swebr=1&swebt=abcd:99" {
		t.Errorf("trace context: %q", got)
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	cfg := testConfig(t)
	cfg.RetryAfterHint = 2500 * time.Millisecond
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := srv.retryAfterSeconds(); got != "3" {
		t.Fatalf("retryAfterSeconds = %q, want ceil to 3", got)
	}
}

// analyzeAt runs the spine at srv for path over srv's own load snapshot,
// the same two calls lifecycle makes.
func analyzeAt(srv *Server, policy core.Policy, path string) core.Plan {
	f := srv.facts(path)
	return core.Analyze(policy, &f, srv.cfg.ID, srv.snapshotLoads())
}

// TestAnalyzeSkipsFailingPeer: one snapshot, one decision. A peer whose
// data path is failing is unavailable in the snapshot, so the broker's
// cost table already routes around it — to the next-best peer, or home
// when every peer is failing — and recovery restores the pick.
func TestAnalyzeSkipsFailingPeer(t *testing.T) {
	cfg := testConfig(t)
	cfg.Store = storage.NewStore(3)
	paths := storage.UniformSet(cfg.Store, 3, 1024)
	cfg.CPUOpsPerSec = 1e3 // serving here costs minutes; either peer wins
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetPeers([]Peer{{ID: 0}, {ID: 1, HTTPAddr: "h1"}, {ID: 2, HTTPAddr: "h2"}})
	for _, node := range []int{1, 2} {
		smp := loadd.Sample{Node: node, CPUOpsPerSec: 1e9, DiskBytesPerSec: 1e9,
			NetBytesPerSec: 1e9, SentAt: srv.nowSec()}
		if err := srv.Table().Update(smp, srv.nowSec()); err != nil {
			t.Fatal(err)
		}
	}
	sweb := core.NewSWEB(core.DefaultParams())
	expect := func(step string, action core.Action, target int) {
		t.Helper()
		if p := analyzeAt(srv, sweb, paths[0]); p.Action != action || p.Target != target {
			t.Fatalf("%s: plan %v -> %d, want %v -> %d", step, p.Action, p.Target, action, target)
		}
	}
	expect("healthy", core.Redirect, 1)
	for i := 0; i < loadd.DefaultFailureLimit; i++ {
		srv.Table().MarkFailure(1)
	}
	expect("pick failing", core.Redirect, 2)
	for i := 0; i < loadd.DefaultFailureLimit; i++ {
		srv.Table().MarkFailure(2)
	}
	expect("every peer failing", core.Serve, 0)
	srv.Table().MarkSuccess(1)
	expect("recovered", core.Redirect, 1)
}

// TestAnalyzeNoCandidatesServesLocal: a policy that returns a bare target
// (file locality) still never sends a client to a peer that has not
// broadcast, nor to a node outside the configured membership.
func TestAnalyzeNoCandidatesServesLocal(t *testing.T) {
	srv, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	fl := core.FileLocality{P: core.DefaultParams()}
	remote := "/docs/u000001.dat" // owned by node 1
	if _, ok := srv.cfg.Store.Lookup(remote); !ok {
		t.Fatalf("fixture lacks %s", remote)
	}
	smp := loadd.Sample{Node: 1, CPUOpsPerSec: 1, DiskBytesPerSec: 1, NetBytesPerSec: 1, SentAt: srv.nowSec()}
	if err := srv.Table().Update(smp, srv.nowSec()); err != nil {
		t.Fatal(err)
	}
	if p := analyzeAt(srv, fl, remote); p.Action != core.Serve || p.Target != 0 {
		t.Fatalf("unconfigured owner: plan %v -> %d, want serve here", p.Action, p.Target)
	}
	srv.SetPeers([]Peer{{ID: 0}, {ID: 1, HTTPAddr: "h1"}})
	if p := analyzeAt(srv, fl, remote); p.Action != core.Redirect || p.Target != 1 {
		t.Fatalf("configured owner: plan %v -> %d, want redirect to 1", p.Action, p.Target)
	}
	srv.Table().Forget(1)
	if p := analyzeAt(srv, fl, remote); p.Action != core.Serve || p.Target != 0 {
		t.Fatalf("silent owner: plan %v -> %d, want serve here", p.Action, p.Target)
	}
}

func TestFetchDefaults(t *testing.T) {
	cfg := testConfig(t)
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	if cfg.FetchAttempts != 3 || cfg.FetchBackoff != 100*time.Millisecond {
		t.Fatalf("fetch defaults: %d %v", cfg.FetchAttempts, cfg.FetchBackoff)
	}
	if cfg.FetchTimeout != 5*time.Second || cfg.RetryAfterHint != 2*time.Second {
		t.Fatalf("fetch defaults: %v %v", cfg.FetchTimeout, cfg.RetryAfterHint)
	}
	if cfg.FailureLimit != loadd.DefaultFailureLimit {
		t.Fatalf("failure limit default = %d", cfg.FailureLimit)
	}
}
