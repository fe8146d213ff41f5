package live

import (
	"strings"
	"testing"
	"time"

	"sweb/internal/storage"
	"sweb/internal/trace"
)

// TestClusterObservability drives traffic through a traced two-node
// cluster and checks the three aggregation paths the tentpole promises:
// per-node /sweb/status, the merged cluster report with its
// predicted-vs-actual t_s table, and the live trace stream reduced by the
// same renderers the simulator uses.
func TestClusterObservability(t *testing.T) {
	rec := trace.NewRecorder(0)
	st := storage.NewStore(2)
	paths := storage.UniformSet(st, 6, 8192)
	cl, err := Start(Options{
		Nodes: 2, Store: st, BaseDir: t.TempDir(), Policy: "sweb",
		LoaddPeriod: 50 * time.Millisecond,
		Trace:       rec,
		Seed:        13,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitKnown(t, []int{0, 1}, cl, 2, 10*time.Second)

	client := cl.NewClient()
	for round := 0; round < 3; round++ {
		for _, p := range paths {
			res, err := client.Get(p)
			if err != nil || res.Status != 200 {
				t.Fatalf("%s: res=%+v err=%v", p, res, err)
			}
		}
	}

	// Every live node answers both introspection endpoints.
	for i, srv := range cl.Servers {
		rep, err := Status(srv.Addr())
		if err != nil {
			t.Fatalf("node %d status: %v", i, err)
		}
		if rep.Node != i || rep.Config.Policy != "SWEB" {
			t.Fatalf("node %d status = %+v", i, rep)
		}
		if rep.Stats.Served == 0 {
			t.Fatalf("node %d served nothing", i)
		}
		if len(rep.Peers) == 0 {
			t.Fatalf("node %d reports no peer health", i)
		}
		audited := false
		for _, r := range srv.FlightDump().Records {
			audited = audited || r.Policy != "" && (r.Status == 302 || r.FulfillSeconds >= 0)
		}
		if !audited {
			t.Fatalf("node %d has an empty decision audit", i)
		}
		if _, err := Metrics(srv.Addr()); err != nil {
			t.Fatalf("node %d metrics: %v", i, err)
		}
	}

	// The merged report carries the paper-style numbers.
	rep, err := cl.Report()
	if err != nil {
		t.Fatal(err)
	}
	if rep.NodesUp != 2 || rep.Policy != "SWEB" {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Connected < 18 || rep.Sent < 18 {
		t.Fatalf("report undercounts traffic: %+v", rep)
	}
	if rep.Compared == 0 {
		t.Fatal("no predicted-vs-actual comparisons recorded")
	}
	havePhase := map[string]bool{}
	for _, p := range rep.Phases {
		havePhase[p.Phase] = true
		if p.P50 < 0 || p.P95 < p.P50 {
			t.Fatalf("phase %s quantiles out of order: %+v", p.Phase, p)
		}
	}
	if !havePhase["parse"] || !havePhase["analyze"] {
		t.Fatalf("report phases = %+v", rep.Phases)
	}
	havePred := map[string]bool{}
	for _, p := range rep.Prediction {
		havePred[p.Phase] = true
	}
	for _, want := range []string{"cpu", "data", "total"} {
		if !havePred[want] {
			t.Fatalf("prediction table lacks %s: %+v", want, rep.Prediction)
		}
	}
	out := RenderReport(rep)
	for _, want := range []string{"policy SWEB", "per-phase service time", "predicted vs actual t_s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, out)
		}
	}

	// The live event stream reduces through the simulator's renderers.
	sum := trace.Summarize(rec.Events())
	if sum.Requests < 18 || sum.ByKind[trace.EvSent] < 18 {
		t.Fatalf("trace summary = %+v", sum)
	}
	if _, ok := sum.MeanPhase["parsed→analyzed"]; !ok {
		t.Fatalf("trace summary lacks live phases: %+v", sum.MeanPhase)
	}
	if r := trace.RenderSummary(sum); !strings.Contains(r, "requests") {
		t.Fatalf("RenderSummary output:\n%s", r)
	}
}
