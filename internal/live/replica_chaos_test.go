package live

import (
	"strconv"
	"testing"
	"time"

	"sweb/internal/leakcheck"
	"sweb/internal/metrics"
	"sweb/internal/storage"
)

// TestReplicaSurvivesOwnerKill is the replication acceptance scenario:
// with R=2 every document survives any single node's death. Each node is
// killed in turn under request load, and every document must keep serving
// 200 — zero 503s — because the internal fetch rotation falls through to
// the surviving replica. The corpse stops answering scrapes, the
// scraped sweb_replica_fetch_total counters prove failover traffic moved
// to the survivor (and none kept crediting the dead source), the victim
// node's flight recorder on a forced-relay survivor shows the successful
// serves, and Restart heals the cluster for the next round.
func TestReplicaSurvivesOwnerKill(t *testing.T) {
	leakcheck.Check(t)
	const (
		nodes       = 3
		loaddPeriod = 50 * time.Millisecond
	)
	st := storage.NewStore(nodes)
	paths := storage.UniformSet(st, 9, 4096)
	cl, err := Start(Options{
		// Round-robin serves where the request lands, so pinning the entry
		// node forces the internal fetch path instead of a redirect.
		Nodes: nodes, Store: st, BaseDir: t.TempDir(), Policy: "rr",
		Replicas:      2,
		CacheOff:      true, // every foreign serve re-fetches: steady failover evidence
		LoaddPeriod:   loaddPeriod,
		FetchAttempts: 2,
		FetchBackoff:  10 * time.Millisecond,
		Seed:          23,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// R=2 must actually hold before anything is killed.
	for _, p := range paths {
		if reps := st.Replicas(p); len(reps) != 2 {
			t.Fatalf("%s replica set = %v, want 2-way", p, reps)
		}
	}

	waitKnown(t, []int{0, 1, 2}, cl, nodes, 10*time.Second)

	client := cl.NewClient()
	defer client.Close()

	for dead := 0; dead < nodes; dead++ {
		deadName := strconv.Itoa(dead)
		pre, _ := cl.ScrapeMetrics()

		if err := cl.Kill(dead); err != nil {
			t.Fatal(err)
		}
		// The corpse stops answering at once, while the survivors' tables
		// still offer it: the load below meets the dead replica on the
		// data path, not only in the broker's view.
		if _, up := cl.ScrapeMetrics(); up != nodes-1 {
			t.Fatalf("kill %d: scrape reached %d nodes, want %d survivors", dead, up, nodes-1)
		}

		// The load: every document via every surviving entry node, twice.
		// All of them are 2-way replicated, so not one response may be 503.
		for round := 0; round < 2; round++ {
			for s := 0; s < nodes; s++ {
				if s == dead {
					continue
				}
				for _, p := range paths {
					res, err := client.GetVia(s, p)
					if err != nil {
						t.Fatalf("kill %d: GetVia(%d, %s) err=%v", dead, s, p, err)
					}
					if res.Status != 200 {
						t.Fatalf("kill %d: GetVia(%d, %s) status=%d, want 200 (zero 503s for replicated docs)",
							dead, s, p, res.Status)
					}
				}
			}
		}

		// Failover evidence. Pick a document the dead node owned: its
		// replica set is {dead, survivor}, so the non-replica survivor was
		// forced to fetch it remotely — and can only have been fed by the
		// surviving replica.
		var deadPath string
		for _, p := range paths {
			if o, _ := st.Owner(p); o == dead {
				deadPath = p
				break
			}
		}
		if deadPath == "" {
			t.Fatalf("uniform set left node %d ownerless", dead)
		}
		reps := st.Replicas(deadPath)
		survivorRep := reps[1] // Replicate never reorders: primary first
		post, _ := cl.ScrapeMetrics()
		lbl := metrics.Labels{"path": deadPath, "source": strconv.Itoa(survivorRep)}
		if before, after := MetricValue(pre, "sweb_replica_fetch_total", lbl),
			MetricValue(post, "sweb_replica_fetch_total", lbl); after <= before {
			t.Fatalf("kill %d: fetches from surviving replica %d of %s did not grow (%v -> %v)",
				dead, survivorRep, deadPath, before, after)
		}
		// No successful fetch may have credited the dead source while it
		// was down. (source=dead samples live on the surviving fetchers,
		// so they are visible in both scrapes.)
		if before, after := sourceFetchTotal(pre, deadName), sourceFetchTotal(post, deadName); after != before {
			t.Fatalf("kill %d: fetches crediting the dead source grew %v -> %v", dead, before, after)
		}
		// The forced-relay survivor's flight recorder carries the proof at
		// per-request grain: successful serves of the dead node's document.
		forced := 3 - dead - survivorRep
		fd, err := Flight(cl.Servers[forced].Addr())
		if err != nil {
			t.Fatal(err)
		}
		served := false
		for _, rec := range fd.Records {
			if rec.Path == deadPath && rec.Status == 200 {
				served = true
			}
		}
		if !served {
			t.Fatalf("kill %d: node %d's flight records show no 200 for %s", dead, forced, deadPath)
		}

		// Restart heals: the node answers scrapes again, gossip
		// reconverges, and the reborn node serves again.
		if err := cl.Restart(dead); err != nil {
			t.Fatal(err)
		}
		if _, up := cl.ScrapeMetrics(); up != nodes {
			t.Fatalf("restart %d: scrape reached %d nodes, want %d", dead, up, nodes)
		}
		waitKnown(t, []int{0, 1, 2}, cl, nodes, 10*time.Second)
		waitFor(t, "restarted node to serve", 10*time.Second, func() bool {
			res, err := client.GetVia(dead, paths[0])
			return err == nil && res.Status == 200
		})
	}
}

// sourceFetchTotal sums sweb_replica_fetch_total across all paths for one
// source node.
func sourceFetchTotal(samples []metrics.Sample, source string) float64 {
	var sum float64
	for _, s := range samples {
		if s.Name == "sweb_replica_fetch_total" && s.Labels["source"] == source {
			sum += s.Value
		}
	}
	return sum
}
