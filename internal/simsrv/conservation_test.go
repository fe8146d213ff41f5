package simsrv

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"sweb/internal/des"
	"sweb/internal/metrics"
	"sweb/internal/nodeobs"
	"sweb/internal/storage"
	"sweb/internal/trace"
	"sweb/internal/workload"
)

// TestConservation: a client request a simulated node connects ends in
// one of the terminal steps nodeobs.Steps lists (TestStepsEndOnce), or
// without a response. A simulated node answers every request it connected
// except a forward it drops as the proxy, because the target is down or
// full. Over the trace golden's scenarios and an overloaded seeded burst
// under each reassignment mechanism, with a node failing mid-burst, each
// node must count connected = sent + redirected + forwards it dropped,
// the last read off the trace.
func TestConservation(t *testing.T) {
	scenarios := traceScenarios()
	for _, mech := range []string{ReassignRedirect, ReassignForward} {
		st := storage.NewStore(3)
		paths := storage.UniformSet(st, 12, 256<<10)
		cfg := MeikoConfig(3, st)
		cfg.Reassign, cfg.LoaddTimeout = mech, 1000
		for i := range cfg.Specs {
			cfg.Specs[i].AcceptQueue = 4
		}
		burst := workload.Burst{RPS: 30, DurationSeconds: 4, Jitter: true}
		arr, err := burst.Generate(workload.UniformPicker(paths), nil, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, traceScenario{name: "burst, " + mech, cfg: cfg, arrivals: arr,
			setup: func(cl *Cluster) { cl.FailNodeAt(2*des.Second, 2) }})
	}
	for _, sc := range scenarios {
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
		dropped := make([]float64, cl.Nodes())
		proxy := map[int64]int{}
		for _, e := range rec.Events() {
			switch {
			case e.Kind == trace.EvForwarded:
				proxy[e.Req] = e.Node
			case e.Kind == trace.EvRefused && strings.HasPrefix(e.Detail, "forward target"):
				dropped[proxy[e.Req]]++
			}
		}
		for x := 0; x < cl.Nodes(); x++ {
			c := simStepCounts(t, cl, x)
			if c[trace.EvConnected] != c[trace.EvSent]+c[trace.EvRedirected]+dropped[x] {
				t.Errorf("%s, node %d: connected %v != sent %v + redirected %v + forwards dropped %v",
					sc.name, x, c[trace.EvConnected], c[trace.EvSent], c[trace.EvRedirected], dropped[x])
			}
		}
	}
}

// simStepCounts reads node x's lifecycle event counters.
func simStepCounts(t *testing.T, cl *Cluster, x int) map[trace.Kind]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := cl.Registry(x).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := map[trace.Kind]float64{}
	for _, s := range samples {
		if s.Name == nodeobs.Events {
			out[trace.Kind(s.Labels["event"])] = s.Value
		}
	}
	return out
}
