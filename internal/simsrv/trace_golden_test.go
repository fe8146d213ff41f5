package simsrv

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sweb/internal/des"
	"sweb/internal/storage"
	"sweb/internal/trace"
	"sweb/internal/workload"
)

// traceScenario is one seeded small cluster of the trace golden: its
// configuration, its arrivals and what to do to it before the run.
type traceScenario struct {
	name     string
	cfg      Config
	arrivals []workload.Arrival
	setup    func(cl *Cluster)
}

// arrivalsEvery returns one arrival per path, gap apart from at.
func arrivalsEvery(at, gap des.Time, paths ...string) []workload.Arrival {
	out := make([]workload.Arrival, len(paths))
	for i, p := range paths {
		out[i] = workload.Arrival{At: at + des.Time(i)*gap, Path: p}
	}
	return out
}

func traceScenarios() []traceScenario {
	var out []traceScenario

	// Round robin serves where DNS sends: node 0 reads /a.html from its
	// disk and later hits its cache, nodes 1 and 2 relay it from node 0,
	// and the 404 and the CGI run wherever they land.
	st := storage.NewStore(3)
	st.MustAdd(storage.File{Path: "/a.html", Size: 8 << 10, Owner: 0})
	st.MustAdd(storage.File{Path: "/cgi-bin/q", Size: 2 << 10, Owner: 2, CGI: true, CGIOps: 2e5})
	cfg := MeikoConfig(3, st)
	cfg.Policy = PolicyRoundRobin
	out = append(out, traceScenario{name: "round robin: disk read, relay, cache hit, 404, CGI", cfg: cfg,
		arrivals: arrivalsEvery(des.Second/10, des.Second/2,
			"/a.html", "/a.html", "/a.html", "/a.html", "/missing.html", "/cgi-bin/q")})

	// File locality sends every request to its owner by 302; the second
	// arrival lands on the owner itself.
	st = storage.NewStore(3)
	st.MustAdd(storage.File{Path: "/b.html", Size: 4 << 10, Owner: 1})
	st.MustAdd(storage.File{Path: "/c.html", Size: 4 << 10, Owner: 2})
	cfg = MeikoConfig(3, st)
	cfg.Policy = PolicyFileLocality
	out = append(out, traceScenario{name: "file locality: 302s", cfg: cfg,
		arrivals: arrivalsEvery(des.Second/10, des.Second/2, "/b.html", "/b.html", "/c.html")})

	// Forwarding toward node 1, which takes one connection at a time, and
	// toward node 2, which is down but still fresh in every table; DNS
	// keeps sending clients to node 2 too, and node 1 refuses the client
	// that arrives while it serves.
	st = storage.NewStore(3)
	st.MustAdd(storage.File{Path: "/full.bin", Size: 512 << 10, Owner: 1})
	st.MustAdd(storage.File{Path: "/down.html", Size: 4 << 10, Owner: 2})
	cfg = MeikoConfig(3, st)
	cfg.Policy = PolicyFileLocality
	cfg.Reassign = ReassignForward
	cfg.LoaddTimeout = 1000
	cfg.Specs[1].AcceptQueue = 1
	out = append(out, traceScenario{name: "forwarding: target full and down, node down, accept capacity", cfg: cfg,
		arrivals: arrivalsEvery(des.Second/10, des.Second/100,
			"/full.bin", "/full.bin", "/full.bin", "/down.html", "/full.bin", "/down.html"),
		setup: func(cl *Cluster) { cl.FailNodeAt(des.Second/20, 2) }})

	// The dispatcher on node 0 places every request on a worker by 302.
	st = storage.NewStore(3)
	st.MustAdd(storage.File{Path: "/d.html", Size: 4 << 10, Owner: 1})
	st.MustAdd(storage.File{Path: "/e.html", Size: 4 << 10, Owner: 2})
	cfg = MeikoConfig(3, st)
	cfg.Dispatcher = true
	out = append(out, traceScenario{name: "dispatcher", cfg: cfg,
		arrivals: arrivalsEvery(des.Second/10, des.Second/2, "/d.html", "/e.html")})

	// A client that gives up long before a big file arrives.
	st = storage.NewStore(2)
	st.MustAdd(storage.File{Path: "/big.bin", Size: 1536 << 10, Owner: 0})
	cfg = MeikoConfig(2, st)
	cfg.Policy = PolicyFileLocality
	cfg.ClientTimeout = des.Second / 20
	out = append(out, traceScenario{name: "client timeout", cfg: cfg,
		arrivals: arrivalsEvery(des.Second/10, des.Second/2, "/big.bin")})
	return out
}

// TestSimTraceGolden pins every trace event the simulator records — its
// request, instant, kind, node and detail, in recording order — and each
// node's exposition text, over small seeded clusters that between them take
// every lifecycle step: a 302, a relay, a disk read, a cache hit, a 404,
// CGI, forwarding to a full and to a down target, the dispatcher, an
// accept-capacity refusal, a node down and a client timeout. Regenerate
// with -update-golden only for an intended change.
func TestSimTraceGolden(t *testing.T) {
	var out strings.Builder
	seen := map[string]bool{}
	var hits int64
	for _, sc := range traceScenarios() {
		rec := trace.NewRecorder(0)
		sc.cfg.Trace, sc.cfg.Seed = rec, 1
		cl, err := New(sc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sc.setup != nil {
			sc.setup(cl)
		}
		cl.RunSchedule(sc.arrivals)
		for _, n := range cl.nodes {
			hits += n.Cache.Stats().Hits
		}
		fmt.Fprintf(&out, "== %s\n", sc.name)
		for _, e := range rec.Events() {
			fmt.Fprintf(&out, "%d %g %s %d %q\n", e.Req, e.At, e.Kind, e.Node, e.Detail)
			seen[string(e.Kind)+" "+e.Detail] = true
			seen[string(e.Kind)] = true
		}
		for x := 0; x < cl.Nodes(); x++ {
			var buf bytes.Buffer
			if err := cl.Registry(x).WriteText(&buf); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "-- node %d exposition\n%s", x, buf.String())
		}
	}
	for _, want := range []string{
		"redirected", "fetch-nfs", "fetch-local", "cgi", "forwarded",
		"refused forward target full", "refused forward target down", "refused accept capacity",
		"refused node down", "timed-out", "delivered", "sent",
	} {
		if !seen[want] {
			t.Errorf("no scenario records %q", want)
		}
	}
	if hits == 0 {
		t.Error("no scenario hits a page cache")
	}
	checkGoldenText(t, "trace", out.String())
}

// checkGoldenText compares got with testdata/<name>.golden and names the
// first lines that differ.
func checkGoldenText(t *testing.T, name, got string) {
	t.Helper()
	file := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	shown := 0
	for i := 0; i < max(len(gl), len(wl)) && shown < 10; i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s.golden line %d:\n got  %q\n want %q", name, i+1, g, w)
			shown++
		}
	}
}
