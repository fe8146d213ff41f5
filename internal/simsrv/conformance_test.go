package simsrv

import (
	"bytes"
	"fmt"
	"testing"

	"sweb/internal/core"
	"sweb/internal/metrics"
	"sweb/internal/nodeobs"
	"sweb/internal/storage"
	"sweb/internal/workload"
)

// TestExecutorConformance: the PS-resource executor carries out each action
// the spine can answer with — a disk read, a cache hit, a relay, a 302, a
// 404 and a CGI run — emitting at the node that analyzed the request
// exactly the events and phase cells nodeobs derives for that action. Each
// case is one arrival on a fresh two-node cluster; the rotation lands it on
// node 0.
func TestExecutorConformance(t *testing.T) {
	for _, c := range []struct {
		name, policy, path string
		warm               bool // the document starts in node 0's cache
		action             core.Action
		fetch              core.Fetch
	}{
		{"local disk", PolicyFileLocality, "/own0.html", false, core.Serve, core.FetchDisk},
		{"cache hit", PolicyFileLocality, "/own0.html", true, core.Serve, core.FetchCache},
		{"relay", PolicyRoundRobin, "/own1.html", false, core.Serve, core.FetchPeer},
		{"302", PolicyFileLocality, "/own1.html", false, core.Redirect, 0},
		{"404", PolicyFileLocality, "/nope.html", false, core.NotFound, 0},
		{"cgi", PolicyFileLocality, "/query.cgi", false, core.Serve, core.FetchCGI},
	} {
		st := storage.NewStore(2)
		st.MustAdd(storage.File{Path: "/own0.html", Size: 4096, Owner: 0})
		st.MustAdd(storage.File{Path: "/own1.html", Size: 4096, Owner: 1})
		st.MustAdd(storage.File{Path: "/query.cgi", Size: 512, Owner: 1, CGI: true, CGIOps: 1e6})
		cfg := MeikoConfig(2, st)
		cfg.Policy = c.policy
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if c.warm {
			cl.nodes[0].Cache.Insert(c.path, 4096)
		}
		res := cl.RunSchedule([]workload.Arrival{{At: 0, Path: c.path}})
		if res.Completed != 1 {
			t.Fatalf("%s: %d of 1 requests completed", c.name, res.Completed)
		}
		var buf bytes.Buffer
		if err := cl.Registry(0).WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		samples, err := metrics.ParseText(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]float64)
		for _, s := range samples {
			switch {
			case s.Name == nodeobs.Events && s.Value > 0:
				got["event "+s.Labels["event"]] = s.Value
			case s.Name == nodeobs.Phase+"_count" && s.Value > 0:
				got["phase "+s.Labels["phase"]] = s.Value
			}
		}
		want := make(map[string]float64)
		events, phases := nodeobs.Steps(c.action, c.fetch)
		for _, e := range events {
			want["event "+string(e)]++
		}
		for _, p := range phases {
			want["phase "+p]++
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: executor emitted %v, the spine's steps are %v", c.name, got, want)
		}
	}
}
