package httpd

import (
	"bufio"
	"fmt"
	"strings"
	"testing"
	"time"

	"sweb/internal/core"
	"sweb/internal/httpmsg"
	"sweb/internal/metrics"
	"sweb/internal/nodeobs"
)

// stepCounts reads a node's lifecycle event counters and phase-cell counts.
func stepCounts(samples []metrics.Sample) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range samples {
		switch s.Name {
		case nodeobs.Events:
			out["event "+s.Labels["event"]] = s.Value
		case nodeobs.Phase + "_count":
			out["phase "+s.Labels["phase"]] = s.Value
		}
	}
	return out
}

// wantSteps is the delta nodeobs.Steps derives for one request.
func wantSteps(a core.Action, f core.Fetch) map[string]float64 {
	events, phases := nodeobs.Steps(a, f)
	out := make(map[string]float64)
	for _, e := range events {
		out["event "+string(e)]++
	}
	for _, p := range phases {
		out["phase "+p]++
	}
	return out
}

// TestExecutorConformance: the socket executor carries out each action the
// spine can answer with — a disk read, a cache hit, a relay, a 302, a 404
// and a CGI run — emitting exactly the events and phase cells nodeobs
// derives for that action. Requests share one connection and each is
// followed by an introspection request, which emits neither: once its
// answer is in, the serve loop has finished the request before it.
func TestExecutorConformance(t *testing.T) {
	node, _, remote := startPairRR(t, func(c *Config) {
		c.Policy = core.FileLocality{P: core.DefaultParams()}
	})
	node.RegisterCGI("/cgi-bin/echo", func(query string, body []byte) ([]byte, string) {
		return []byte("ok"), "text/plain"
	})
	waitFor(t, 5*time.Second, "node 0 knows node 1", func() bool { return knows(node, 1) })
	conn := dialNode(t, node.Addr())
	br := bufio.NewReader(conn)
	get := func(target string) int {
		path, query, _ := strings.Cut(target, "?")
		req := &httpmsg.Request{Method: "GET", Path: path, Query: query, Proto: "HTTP/1.1", Header: httpmsg.Header{}}
		if err := req.Write(conn); err != nil {
			t.Fatal(err)
		}
		resp, err := httpmsg.ReadResponse(br, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}
	for _, c := range []struct {
		name, target string
		status       int
		action       core.Action
		fetch        core.Fetch
	}{
		{"local disk", "/docs/local.html", httpmsg.StatusOK, core.Serve, core.FetchDisk},
		{"cache hit", "/docs/local.html", httpmsg.StatusOK, core.Serve, core.FetchCache},
		{"relay", remote + "?swebr=1", httpmsg.StatusOK, core.Serve, core.FetchPeer},
		{"302", remote, httpmsg.StatusMovedTemporarily, core.Redirect, 0},
		{"404", "/docs/nope.html", httpmsg.StatusNotFound, core.NotFound, 0},
		{"cgi", "/cgi-bin/echo", httpmsg.StatusOK, core.Serve, core.FetchCGI},
	} {
		before := stepCounts(scrape(t, node))
		if got := get(c.target); got != c.status {
			t.Fatalf("%s: GET %s = %d, want %d", c.name, c.target, got, c.status)
		}
		if got := get("/sweb/status"); got != httpmsg.StatusOK {
			t.Fatalf("%s: introspection = %d", c.name, got)
		}
		got := stepCounts(scrape(t, node))
		for k, v := range before {
			if got[k] -= v; got[k] == 0 {
				delete(got, k)
			}
		}
		if want := wantSteps(c.action, c.fetch); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: executor emitted %v, the spine's steps are %v", c.name, got, want)
		}
	}
}
