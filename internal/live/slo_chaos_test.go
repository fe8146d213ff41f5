package live

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"sweb/internal/flight"
	"sweb/internal/httpd"
	"sweb/internal/leakcheck"
	"sweb/internal/metrics"
	"sweb/internal/nodeobs"
	"sweb/internal/slo"
	"sweb/internal/storage"
	"sweb/internal/trace"
)

// fastBurn is the SRE workbook's fast-burn threshold: 2% of a 30-day
// error budget spent in one hour.
const fastBurn = 14.4

// availStatus fetches addr's /sweb/slo report and returns its "avail"
// objective.
func availStatus(t *testing.T, addr string) slo.Status {
	t.Helper()
	rep, err := SLO(addr)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Objectives {
		if s.Objective.Name == "avail" {
			return s
		}
	}
	t.Fatalf("%s reports no avail objective: %+v", addr, rep.Objectives)
	return slo.Status{}
}

// TestSLOBreachFiresFastBurnAndSnapshot is the SLO engine's acceptance
// scenario: traced traffic fills the exemplar slots and flight rings, a
// node is killed, and owner-dead 503s injected at node 0 burn its
// availability budget faster than the fast-burn threshold. Each node's
// /sweb/slo lifetime report must charge exactly the errors it served —
// the injected count at node 0, none at node 1 — and a response-histogram
// exemplar scraped out of a bundle written at the breach must resolve to
// a flight record in the same bundle: the breach → exemplar → flight
// pivot end to end.
func TestSLOBreachFiresFastBurnAndSnapshot(t *testing.T) {
	leakcheck.Check(t)
	const (
		nodes       = 3
		dead        = 2
		loaddPeriod = 50 * time.Millisecond
		rounds      = 3
	)
	objs, err := slo.ParseObjectives("avail=99")
	if err != nil {
		t.Fatal(err)
	}
	st := storage.NewStore(nodes)
	paths := storage.UniformSet(st, 9, 2048)
	rec := trace.NewRecorder(1 << 14)
	cl, err := Start(Options{
		// Round-robin never redirects, so a survivor entered directly must
		// relay dead-owner documents itself — every injected request is one
		// deterministic owner_unreachable drop (FetchAttempts 1).
		Nodes: nodes, Store: st, BaseDir: t.TempDir(), Policy: "rr",
		Node: httpd.Config{
			LoaddPeriod:   loaddPeriod,
			FetchAttempts: 1,
			SnapshotDir:   t.TempDir(),
			Trace:         rec,
			FlightRing:    4096,
			SLO:           objs,
		},
		Seed: 37,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitKnown(t, []int{0, 1, 2}, cl, nodes, 10*time.Second)

	// Healthy traced traffic: fills every node's response exemplars and
	// flight rings with resolvable trace ids, burns no budget.
	client := cl.NewClient()
	defer client.Close()
	client.SetTrace(rec)
	for round := 0; round < 2; round++ {
		for _, p := range paths {
			if res, err := client.Get(p); err != nil || res.Status != 200 {
				t.Fatalf("healthy get %s: res=%+v err=%v", p, res, err)
			}
		}
	}
	for i, srv := range cl.Servers {
		if s := availStatus(t, srv.Addr()); s.Errors != 0 || !s.Met {
			t.Fatalf("healthy traffic charged node %d: %+v", i, s)
		}
	}
	if got := cl.Bundles(); len(got) != 0 {
		t.Fatalf("healthy cluster already wrote bundles: %v", got)
	}

	var deadPaths []string
	for _, p := range paths {
		if o, _ := st.Owner(p); o == dead {
			deadPaths = append(deadPaths, p)
		}
	}
	if len(deadPaths) == 0 {
		t.Fatal("uniform set left the doomed node unowned")
	}
	if err := cl.Kill(dead); err != nil {
		t.Fatal(err)
	}

	// Inject failures: each owner-dead fetch (swebr marks it re-scheduled,
	// so the survivor must serve, not 302) is exactly one 503 and one
	// owner_unreachable drop.
	injected := 0
	for round := 0; round < rounds; round++ {
		for _, p := range deadPaths {
			status, _, _ := directGet(t, cl.Servers[0].Addr(), p+"?swebr=1")
			if status != 503 {
				t.Fatalf("owner-dead fetch %s: status %d, want 503", p, status)
			}
			injected++
		}
	}

	// Budget accounting: node 0 charges exactly the injected 503s, the
	// untouched survivor charges nothing.
	var got slo.Status
	waitFor(t, "budget accounting to settle", 5*time.Second, func() bool {
		got = availStatus(t, cl.Servers[0].Addr())
		return got.Errors >= float64(injected)
	})
	if got.Errors != float64(injected) {
		t.Fatalf("node 0 charged %v errors, injected %d", got.Errors, injected)
	}
	if got.Met || got.BurnRate <= fastBurn {
		t.Fatalf("node 0's report does not show a fast burn: %+v", got)
	}
	if s := availStatus(t, cl.Servers[1].Addr()); s.Errors != 0 {
		t.Fatalf("node 1 charged %v errors without serving any failure", s.Errors)
	}

	bundle, err := cl.WriteSnapshot("slo_fast_avail")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(filepath.Base(bundle), "slo_fast_avail") {
		t.Fatalf("bundle %s not named after the SLO breach", bundle)
	}

	// The pivot: a response-histogram exemplar in the bundle's metrics
	// snapshot names a trace id, and that id resolves to a flight record
	// in the same node's black box within the same bundle.
	resolved := false
	for _, i := range []int{0, 1} {
		ndir := filepath.Join(bundle, "node-node"+strconv.Itoa(i))
		pm, err := os.ReadFile(filepath.Join(ndir, "metrics.prom"))
		if err != nil {
			t.Fatalf("bundle missing node %d metrics: %v", i, err)
		}
		samples, err := metrics.ParseText(strings.NewReader(string(pm)))
		if err != nil {
			t.Fatalf("bundle node %d metrics unparsable: %v", i, err)
		}
		var tid string
		for _, s := range samples {
			if s.Name == nodeobs.Response+"_bucket" && s.Exemplar != nil && s.Exemplar.TraceID != "" {
				tid = s.Exemplar.TraceID
				break
			}
		}
		if tid == "" {
			continue
		}
		fb, err := os.ReadFile(filepath.Join(ndir, "flight.json"))
		if err != nil {
			t.Fatalf("bundle missing node %d flight rings: %v", i, err)
		}
		var d flight.Dump
		if err := json.Unmarshal(fb, &d); err != nil {
			t.Fatal(err)
		}
		for _, r := range d.Records {
			if r.TraceID == tid {
				if r.Status != 200 {
					t.Fatalf("exemplar trace %s resolved to status %d, want a success", tid, r.Status)
				}
				resolved = true
				break
			}
		}
		if !resolved {
			t.Fatalf("node %d exemplar trace %s has no flight record in the bundle", i, tid)
		}
	}
	if !resolved {
		t.Fatal("no survivor published a response exemplar in the bundle")
	}
}
