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
	"sweb/internal/metrics"
	"sweb/internal/monitor"
	"sweb/internal/nodeobs"
	"sweb/internal/slo"
	"sweb/internal/storage"
	"sweb/internal/trace"
)

// TestSLOBreachFiresFastBurnAndSnapshot is the SLO engine's acceptance
// scenario: traced traffic fills the exemplar slots and flight rings, a
// node is killed under load, the injected owner-dead 503s burn the
// availability budget past the fast pair's threshold, slo_fast_avail
// fires through the monitor's ExtraRules hook, and the OnFire snapshot
// writes a bundle named after the SLO alert. The consumed budget must
// match the injected error count exactly, and a response-histogram
// exemplar scraped out of the bundle must resolve to a flight record in
// the same bundle — the breach → exemplar → flight pivot end to end.
func TestSLOBreachFiresFastBurnAndSnapshot(t *testing.T) {
	const (
		nodes       = 3
		dead        = 2
		loaddPeriod = 50 * time.Millisecond
		collect     = 60 * time.Millisecond
	)
	st := storage.NewStore(nodes)
	paths := storage.UniformSet(st, 9, 2048)
	rec := trace.NewRecorder(1 << 14)
	cl, err := Start(Options{
		// Round-robin never redirects, so a survivor entered directly must
		// relay dead-owner documents itself — every injected request is one
		// deterministic owner_unreachable drop (FetchAttempts 1).
		Nodes: nodes, Store: st, BaseDir: t.TempDir(), Policy: "rr",
		LoaddPeriod:   loaddPeriod,
		FetchAttempts: 1,
		SnapshotDir:   t.TempDir(),
		Trace:         rec,
		FlightRing:    4096,
		Seed:          37,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitKnown(t, []int{0, 1, 2}, cl, nodes, 10*time.Second)

	objs, err := slo.ParseObjectives("avail=99")
	if err != nil {
		t.Fatal(err)
	}
	mon := cl.StartMonitor(monitor.Config{
		Window: 2,
		// Push the built-in rules past the test's horizon so the only
		// alert that can fire — and trigger the snapshot — is the SLO
		// burn-rate pair under test.
		Rules: monitor.RuleConfig{ForSamples: 100000, StalenessSeconds: 1e9},
		ExtraRules: slo.Rules(objs, slo.Windows{
			FastLong: 3, FastShort: 1, SlowLong: 6, SlowShort: 2,
		}),
	}, collect)

	// Healthy traced traffic: fills every node's response exemplars and
	// flight rings with resolvable trace ids, burns no budget.
	client := cl.NewClient()
	client.SetTrace(rec)
	for round := 0; round < 2; round++ {
		for _, p := range paths {
			if res, err := client.Get(p); err != nil || res.Status != 200 {
				t.Fatalf("healthy get %s: res=%+v err=%v", p, res, err)
			}
		}
	}
	waitFor(t, "first collection rounds", 5*time.Second, func() bool { return mon.Rounds() >= 3 })
	if alerts := mon.Alerts(); len(alerts) != 0 {
		t.Fatalf("healthy traffic fired alerts: %v", monitor.SortedAlertKeys(alerts))
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

	// Inject failures until the fast pair fires: each owner-dead fetch
	// (swebr marks it re-scheduled, so the survivor must serve, not 302)
	// is exactly one 503 and one owner_unreachable drop.
	injected := 0
	breachDeadline := time.Now().Add(20 * time.Second)
	for !mon.AlertFiring("slo_fast_avail", "cluster") {
		if time.Now().After(breachDeadline) {
			t.Fatalf("slo_fast_avail never fired after %d injected errors; alerts: %v",
				injected, monitor.SortedAlertKeys(mon.Alerts()))
		}
		for _, p := range deadPaths {
			status, _, _ := directGet(t, cl.Servers[0].Addr(), p+"?swebr=1")
			if status != 503 {
				t.Fatalf("owner-dead fetch %s: status %d, want 503", p, status)
			}
			injected++
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The firing SLO alert wrote the diagnostic bundle via OnFire.
	waitFor(t, "alert-triggered bundle", 10*time.Second, func() bool {
		return len(cl.Bundles()) >= 1
	})
	bundle := cl.Bundles()[0]
	if !strings.Contains(filepath.Base(bundle), "alert-slo_") {
		t.Fatalf("bundle %s not named after the SLO alert", bundle)
	}

	// Budget accounting: once the collect loop has scraped the final
	// counters, the cluster-wide error count equals the injected 503s —
	// nothing else in this run consumes budget.
	var rep slo.Report
	waitFor(t, "budget accounting to settle", 5*time.Second, func() bool {
		r, err := cl.SLOReport(objs, 0)
		if err != nil {
			return false
		}
		rep = r
		return len(r.Objectives) == 1 && r.Objectives[0].Errors >= float64(injected)
	})
	got := rep.Objectives[0]
	if got.Errors != float64(injected) {
		t.Fatalf("budget charged %v errors, injected %d", got.Errors, injected)
	}
	if !rep.Breached() || got.Met || got.BurnRate <= 1 {
		t.Fatalf("report does not show the breach: %+v", got)
	}
	// The untouched survivor never dropped anything.
	for _, s := range rep.Nodes["1"] {
		if s.Errors != 0 {
			t.Fatalf("node 1 charged %v errors without serving any failure", s.Errors)
		}
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
