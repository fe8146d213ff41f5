package simsrv

import (
	"math/rand"
	"strconv"
	"testing"

	"sweb/internal/des"
	"sweb/internal/heat"
	"sweb/internal/monitor"
	"sweb/internal/rebalance"
	"sweb/internal/storage"
	"sweb/internal/workload"
)

// TestSkewedHotspotRedistribution closes the heat loop inside the
// simulator: a Zipf-style burst concentrates 80% of traffic on one
// document, the rebalancer replicates it onto the heaviest non-owner
// landing node within its one-action budget, and the system-level
// effects follow — the relay rate collapses, the advisor's predicted
// reduction matches the observed one, and the hot_doc alert fires and
// then clears even though the skew itself never flattens.
func TestSkewedHotspotRedistribution(t *testing.T) {
	const nodes = 3
	st := storage.NewStore(nodes)
	bg := storage.UniformSet(st, 6, 2048)
	hot := storage.SkewedSet(st, 8192)

	cfg := MeikoConfig(nodes, st)
	// Round-robin serves where requests land, so two thirds of the
	// hotspot's traffic relays until a replica lands; the cache is off so
	// the relief is attributable to replication alone.
	cfg.Policy = PolicyRoundRobin
	cfg.CacheOff = true
	cfg.Seed = 17
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	mon := monitor.New(monitor.Config{
		Window: 4,
		Rules: monitor.RuleConfig{
			// Everything but hot_doc is parked out of reach.
			RedirectRatio:   2,
			ImbalanceCoV:    100,
			CacheMinLookups: 1e9,
			HotDocShare:     0.65,
			ForSamples:      2,
		},
	})
	for i := 0; i < cl.Nodes(); i++ {
		i := i
		mon.AddSource(&monitor.RegistrySource{
			Name:     strconv.Itoa(i),
			Registry: cl.Registry(i),
			Up:       func() bool { return cl.NodeUp(i) },
		})
	}

	// hotHeat sums the hotspot's relays and its requests since admission
	// (Count - ErrBound, what sweb_heat_requests_total reports) over every
	// node's sketch. Reading the dump, not the registry, makes a path the
	// sketch lost an error rather than a silent zero.
	hotHeat := func() (relays, reqs float64) {
		for i := 0; i < cl.Nodes(); i++ {
			for _, e := range cl.HeatDump(i).Entries {
				if e.Path == hot {
					relays += float64(e.Relays)
					reqs += float64(e.Count - e.ErrBound)
				}
			}
		}
		return relays, reqs
	}

	// Per-virtual-second telemetry, recorded before the rebalancer's tick
	// at the same instant so each row reflects the pre-action state. The
	// cumulative request counter marks which ticks still carried traffic:
	// the event loop keeps ticking after the burst drains, and those idle
	// seconds must not count toward any rate.
	type tick struct {
		relays   float64 // cumulative hot-doc relays, cluster-wide
		reqs     float64 // cumulative hot-doc serves, cluster-wide
		replicas int
		firing   bool
	}
	var timeline []tick
	var preAdvice heat.Advice // advisor's view while the hotspot was unreplicated
	cl.Every(des.Second, func() {
		mon.Collect(cl.Sim.Now().ToSeconds())
		reps := len(st.Replicas(hot))
		if reps == 1 {
			for _, a := range heat.Advise(cl.MergedHeat()) {
				if a.Path == hot {
					preAdvice = a
				}
			}
		}
		relays, reqs := hotHeat()
		timeline = append(timeline, tick{
			relays:   relays,
			reqs:     reqs,
			replicas: reps,
			firing:   mon.AlertFiring("hot_doc", hot),
		})
	})

	// ForTicks 4 holds the fix back long enough for the monitor's own
	// 2-sample hysteresis to fire hot_doc first — the scenario under test
	// is alert → redistribution → alert clears, in that order.
	applied := cl.StartRebalancer(rebalance.Config{
		MaxReplicas:   2,
		BudgetPerTick: 1,
		HotShare:      0.5,
		CoolShare:     0.05,
		ForTicks:      4,
		CooldownTicks: 2,
	}, des.Second)

	const rps, dur = 40, 12
	pick, err := workload.WeightedPicker([][]string{{hot}, bg}, []float64{0.8, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	burst := workload.Burst{RPS: rps, DurationSeconds: dur, Jitter: true}
	arr, err := burst.Generate(pick, nil, rand.New(rand.NewSource(29)))
	if err != nil {
		t.Fatal(err)
	}
	res := cl.RunSchedule(arr)
	if res.Completed == 0 {
		t.Fatal("burst completed nothing")
	}

	// The rebalancer acted: exactly the hotspot, exactly one add, onto
	// the node the advisor nominated.
	if len(*applied) == 0 {
		t.Fatal("rebalancer applied no actions")
	}
	add := (*applied)[0]
	if add.Kind != "add" || add.Path != hot {
		t.Fatalf("first applied action = %+v, want add of %s", add, hot)
	}
	if preAdvice.Path != hot || add.Node != preAdvice.ReplicaNode {
		t.Fatalf("replica landed on %d, advisor nominated %+v", add.Node, preAdvice)
	}
	if reps := st.Replicas(hot); len(reps) != 2 {
		t.Fatalf("hotspot replica set = %v, want 2-way", reps)
	}
	for _, a := range *applied {
		if a.Path != hot {
			t.Fatalf("rebalancer touched background doc: %+v", a)
		}
	}

	// The relay rate collapsed once the replica landed: compare the
	// steady unreplicated per-second rate against the last seconds that
	// still carried traffic.
	traffic := timeline[:1]
	for i := 1; i < len(timeline); i++ {
		if timeline[i].reqs > timeline[i-1].reqs {
			traffic = append(traffic, timeline[i])
		}
	}
	var preRate, postRate float64
	var prePts, postPts int
	for i := 1; i < len(traffic); i++ {
		d := traffic[i].relays - traffic[i-1].relays
		if traffic[i].replicas == 1 {
			preRate += d
			prePts++
		} else if i >= len(traffic)-3 {
			postRate += d
			postPts++
		}
	}
	if prePts == 0 || postPts == 0 {
		t.Fatalf("timeline lacks both phases: %+v", traffic)
	}
	preRate /= float64(prePts)
	postRate /= float64(postPts)
	if postRate > 0.75*preRate {
		t.Fatalf("relay rate did not collapse: pre=%.1f/s post=%.1f/s", preRate, postRate)
	}

	// The advisor's promise held up: predicted reduction (share of total
	// cluster work) within 50% relative + 5pp absolute of the observed
	// relay-rate drop.
	observed := (preRate - postRate) / rps
	pred := preAdvice.PredictedReduction
	if pred <= 0 {
		t.Fatalf("advisor predicted no reduction: %+v", preAdvice)
	}
	if diff := observed - pred; diff > 0.5*pred+0.05 || diff < -0.5*pred-0.05 {
		t.Fatalf("prediction off: predicted %.3f observed %.3f", pred, observed)
	}

	// hot_doc fired while the document was unreplicated and cleared after
	// the replica halved its per-copy share — judged only over ticks with
	// traffic, so the clear cannot be explained by the burst draining.
	fired, clearedAfter := -1, -1
	for i, tk := range traffic {
		if tk.firing && fired < 0 {
			fired = i
		}
		if fired >= 0 && !tk.firing && i > fired && clearedAfter < 0 {
			clearedAfter = i
		}
	}
	if fired < 0 {
		t.Fatalf("hot_doc never fired: %+v", traffic)
	}
	if traffic[fired].replicas != 1 {
		t.Fatalf("hot_doc first fired at tick %d with %d replicas", fired, traffic[fired].replicas)
	}
	if clearedAfter < 0 {
		t.Fatalf("hot_doc never cleared under load (fired at tick %d): %+v", fired, traffic)
	}
	// "Without the load flattening": the final seconds still relayed the
	// hotspot from its remaining away node, so traffic stayed skewed.
	if postRate <= 0 {
		t.Fatalf("hot traffic flattened instead of being redistributed (post relay rate %.2f/s)", postRate)
	}
}
