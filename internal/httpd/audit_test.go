package httpd

import (
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"sweb/internal/core"
	"sweb/internal/flight"
	"sweb/internal/httpmsg"
	"sweb/internal/storage"
)

// auditBurst is the decision-audit golden's traffic at node 0: a disk
// read, a cached hit, a 302 (followed to its target), a relay, a 404 and
// a CGI run.
var auditBurst = []string{
	"/docs/local.html", "/docs/local.html", "/docs/remote.bin",
	"/docs/remote.bin?swebr=1", "/docs/nope.html", "/cgi-bin/echo?x=1",
}

// sign masks a measured or predicted figure to its sign: -1 marks "none".
func sign(v float64) string {
	switch {
	case v < 0:
		return "-1"
	case v == 0:
		return "0"
	}
	return "+"
}

// auditRows renders node srv's decision audit from its /sweb/flight
// records, oldest first: the requests the broker placed that left as a 302
// or reached fulfillment here. Seq and arrival are left out and every time
// and cost figure is masked to its sign. A 302 has no measured t_s here:
// its target fulfills it.
func auditRows(t *testing.T, srv *Server) string {
	t.Helper()
	status, body := get(t, srv.Addr(), "/sweb/flight")
	if status != httpmsg.StatusOK {
		t.Fatalf("/sweb/flight = %d", status)
	}
	var d flight.Dump
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range d.Records {
		redirected := r.Status == httpmsg.StatusMovedTemporarily
		if r.Policy == "" || !redirected && r.FulfillSeconds < 0 {
			continue
		}
		actual := r.TotalSeconds
		if redirected {
			actual = -1
		}
		fmt.Fprintf(&b, "%s policy=%q target=%d redirected=%v predicted=%s actual=%s parse=%s analyze=%s fulfill=%s\n",
			r.Path, r.Policy, r.Target, redirected, sign(r.PredictedSeconds), sign(actual),
			sign(r.ParseSeconds), sign(r.AnalyzeSeconds), sign(r.FulfillSeconds))
		for _, c := range r.Candidates {
			fmt.Fprintf(&b, "  node=%d source=%d redirect=%s data=%s cpu=%s net=%s total=%s infeasible=%v\n",
				c.Node, c.Source, sign(c.Redirect), sign(c.Data), sign(c.CPU),
				sign(c.Net), sign(c.Total), c.Infeasible)
		}
	}
	return b.String()
}

// TestDecisionAuditGolden drives the same burst at a two-node cluster under
// SWEB and under file locality and pins each node's record of its
// decisions: which requests were scheduled, where each went, whether the
// broker predicted its cost, which phases it reached, and the cost table
// behind each choice. Gossip runs once, at start-up, so every decision
// sees the same loads in every run.
func TestDecisionAuditGolden(t *testing.T) {
	var out strings.Builder
	for _, policy := range []core.Policy{core.NewSWEB(core.DefaultParams()), core.FileLocality{P: core.DefaultParams()}} {
		a, b := startPair(t, func(c *Config) {
			c.Policy, c.LoaddPeriod, c.LoaddTimeout = policy, time.Hour, time.Hour
			if c.ID == 1 { // ten times the disk and network: SWEB sends it big documents
				c.DiskBytesPerSec, c.NetBytesPerSec = 50e6, 50e6
			}
		},
			storage.File{Path: "/docs/local.html", Size: 2048, Owner: 0},
			storage.File{Path: "/docs/remote.bin", Size: 256 << 10, Owner: 1})
		a.RegisterCGI("/cgi-bin/echo", func(q string, _ []byte) ([]byte, string) {
			return []byte("query " + q + "\n"), "text/plain"
		})
		waitFor(t, 5*time.Second, "the nodes know each other", func() bool {
			return knows(a, 1) && knows(b, 0)
		})
		for _, target := range auditBurst {
			got, err := sendRaw(a.Addr(), "GET "+target+" HTTP/1.0\r\n\r\n")
			if err != nil {
				t.Fatal(err)
			}
			head, _, _ := strings.Cut(string(got), "\r\n\r\n")
			if !strings.HasPrefix(head, "HTTP/1.0 302") {
				continue
			}
			_, loc, _ := strings.Cut(head, "Location: http://")
			hostPath, _, _ := strings.Cut(loc, "\r\n")
			host, path, _ := strings.Cut(hostPath, "/")
			if _, _, err := net.SplitHostPort(host); err != nil {
				t.Fatalf("302 Location %q: %v", loc, err)
			}
			if _, err := sendRaw(host, "GET /"+path+" HTTP/1.0\r\n\r\n"); err != nil {
				t.Fatal(err)
			}
		}
		for i, srv := range []*Server{a, b} {
			fmt.Fprintf(&out, "== %s: node%d\n%s", policy.Name(), i, auditRows(t, srv))
		}
	}
	checkGoldenText(t, "decisions", out.String())
}
