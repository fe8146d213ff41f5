package simsrv

import (
	"math/rand"
	"testing"

	"sweb/internal/des"
	"sweb/internal/heat"
	"sweb/internal/rebalance"
	"sweb/internal/storage"
	"sweb/internal/workload"
)

// TestSkewedHotspotRedistribution closes the heat loop inside the
// simulator: a Zipf-style burst concentrates 80% of traffic on one
// document, the rebalancer replicates it onto the heaviest non-owner
// landing node within its one-action budget, and the system-level
// effects follow — the relay rate collapses, the advisor's predicted
// reduction matches the observed one, and the hotspot's per-copy share of
// the cluster's requests is above hotDocShare while it has one copy and
// below it at the end, even though the skew itself never flattens.
func TestSkewedHotspotRedistribution(t *testing.T) {
	const hotDocShare = 0.65
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

	// hotHeat sums the hotspot's relays and its requests since admission
	// (Count - ErrBound, what sweb_heat_requests_total reports) over every
	// node's sketch, with every request the sketches absorbed. Reading the
	// dump, not the registry, makes a path the sketch lost an error rather
	// than a silent zero.
	hotHeat := func() (relays, reqs, total float64) {
		for i := 0; i < cl.Nodes(); i++ {
			d := cl.HeatDump(i)
			total += float64(d.Total)
			for _, e := range d.Entries {
				if e.Path == hot {
					relays += float64(e.Relays)
					reqs += float64(e.Count - e.ErrBound)
				}
			}
		}
		return relays, reqs, total
	}

	// Per-virtual-second telemetry, recorded before the rebalancer's tick
	// at the same instant so each row reflects the pre-action state. The
	// cumulative request counter marks which ticks still carried traffic:
	// the event loop keeps ticking after the burst drains, and those idle
	// seconds must not count toward any rate.
	type tick struct {
		relays   float64 // cumulative hot-doc relays, cluster-wide
		reqs     float64 // cumulative hot-doc serves, cluster-wide
		total    float64 // cumulative serves of any document, cluster-wide
		replicas int
	}
	var timeline []tick
	var preAdvice heat.Advice // advisor's view while the hotspot was unreplicated
	cl.Every(des.Second, func() {
		reps := len(st.Replicas(hot))
		if reps == 1 {
			for _, a := range heat.Advise(cl.MergedHeat()) {
				if a.Path == hot {
					preAdvice = a
				}
			}
		}
		relays, reqs, total := hotHeat()
		timeline = append(timeline, tick{
			relays:   relays,
			reqs:     reqs,
			total:    total,
			replicas: reps,
		})
	})

	// ForTicks 4 holds the fix back for several traffic ticks, so the
	// unreplicated phase the share check below reads is long enough to
	// judge.
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

	// The hotspot drew over hotDocShare of the requests while it had one
	// copy, and its per-copy share fell under hotDocShare in the last
	// seconds that still carried traffic, once the replica halved it —
	// judged only over ticks with traffic, so the drop cannot be explained
	// by the burst draining.
	var preHot, preTotal, postHot, postTotal float64
	for i := 1; i < len(traffic); i++ {
		dHot, dTotal := traffic[i].reqs-traffic[i-1].reqs, traffic[i].total-traffic[i-1].total
		if traffic[i].replicas == 1 {
			preHot += dHot
			preTotal += dTotal
		} else if i >= len(traffic)-3 {
			postHot += dHot / float64(traffic[i].replicas)
			postTotal += dTotal
		}
	}
	if share := preHot / preTotal; share <= hotDocShare {
		t.Fatalf("unreplicated hotspot drew %.2f of the requests, want above %.2f", share, hotDocShare)
	}
	if share := postHot / postTotal; share >= hotDocShare {
		t.Fatalf("replicated hotspot's per-copy share is %.2f at the end, want below %.2f", share, hotDocShare)
	}
	// "Without the load flattening": the final seconds still relayed the
	// hotspot from its remaining away node, so traffic stayed skewed.
	if postRate <= 0 {
		t.Fatalf("hot traffic flattened instead of being redistributed (post relay rate %.2f/s)", postRate)
	}
}
