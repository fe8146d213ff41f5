package live

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sweb/internal/leakcheck"
	"sweb/internal/metrics"
	"sweb/internal/simsrv"
	"sweb/internal/slo"
	"sweb/internal/storage"
	"sweb/internal/workload"
)

// TestSimLiveSLOParity evaluates the same declarative objectives against
// each substrate's per-node lifetime counters — a simulated node's
// registry and a live node's /sweb/slo — and requires them to agree: on
// these healthy workloads every node saw traffic, charged no errors, and
// met every objective.
func TestSimLiveSLOParity(t *testing.T) {
	leakcheck.Check(t)
	objs, err := slo.ParseObjectives("avail=99.9,p99=10s")
	if err != nil {
		t.Fatal(err)
	}
	check := func(substrate string, node int, r slo.Report) {
		t.Helper()
		if r.Breached() || len(r.Objectives) != len(objs) {
			t.Fatalf("%s node %d: healthy run breached or lost objectives: %+v", substrate, node, r.Objectives)
		}
		for _, s := range r.Objectives {
			if s.Total == 0 || s.Errors != 0 {
				t.Fatalf("%s node %d: objective %s counted %v total, %v errors", substrate, node, s.Objective.Name, s.Total, s.Errors)
			}
		}
	}

	simStore := storage.NewStore(3)
	simPaths := storage.UniformSet(simStore, 12, 32*1024)
	sim, err := simsrv.New(simsrv.MeikoConfig(3, simStore))
	if err != nil {
		t.Fatal(err)
	}
	burst := workload.Burst{RPS: 20, DurationSeconds: 5, Jitter: true}
	arr, err := burst.Generate(workload.UniformPicker(simPaths), nil, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if res := sim.RunSchedule(arr); res.Completed == 0 {
		t.Fatal("simulated burst completed nothing")
	}
	for i := 0; i < sim.Nodes(); i++ {
		var buf bytes.Buffer
		if err := sim.Registry(i).WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		samples, err := metrics.ParseText(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatal(err)
		}
		check("sim", i, slo.EvaluateSamples(samples, objs, "sim", 0, 0))
	}

	st := storage.NewStore(2)
	paths := storage.UniformSet(st, 8, 4096)
	cl, err := Start(Options{
		Nodes: 2, Store: st, BaseDir: t.TempDir(), Policy: "sweb",
		LoaddPeriod: 50 * time.Millisecond,
		SLO:         objs,
		Seed:        21,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	client := cl.NewClient()
	defer client.Close()
	for round := 0; round < 3; round++ {
		for _, p := range paths {
			if res, err := client.Get(p); err != nil || res.Status != 200 {
				t.Fatalf("get %s: res=%+v err=%v", p, res, err)
			}
		}
	}
	for i, srv := range cl.Servers {
		r, err := SLO(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		check("live", i, *r)
	}
}
