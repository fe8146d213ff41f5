package live

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sweb/internal/heat"
	"sweb/internal/leakcheck"
	"sweb/internal/metrics"
	"sweb/internal/nodeobs"
	"sweb/internal/storage"
)

// hotShare is path's share of the requests the cluster's heat sketches
// absorbed between two scrapes, from the per-path sweb_heat_requests_total
// counters against the sweb_heat_observations_total denominator. ok is
// false until at least minObs requests fell between the scrapes.
func hotShare(from, to []metrics.Sample, path string, minObs float64) (share float64, ok bool) {
	obs := MetricValue(to, nodeobs.HeatObservations, nil) - MetricValue(from, nodeobs.HeatObservations, nil)
	if obs < minObs {
		return 0, false
	}
	lbl := metrics.Labels{"path": path}
	return (MetricValue(to, nodeobs.HeatRequests, lbl) - MetricValue(from, nodeobs.HeatRequests, lbl)) / obs, true
}

// TestHeatHotDocChaos is the document-heat acceptance scenario: a
// Zipf-skewed burst hammers one injected hotspot, the scraped heat
// counters show it drawing over half the cluster's requests, the
// placement advisor ranks it #1, a diagnostic bundle written then carries
// each node's heat.json, and the hotspot's share falls back under half
// once the workload flattens out.
func TestHeatHotDocChaos(t *testing.T) {
	leakcheck.Check(t)
	const (
		nodes       = 3
		loaddPeriod = 50 * time.Millisecond
		hotDocShare = 0.5
		minObs      = 20
	)
	snapDir := t.TempDir()
	st := storage.NewStore(nodes)
	bg := storage.UniformSet(st, 6, 2048)
	hot := storage.SkewedSet(st, 4096)
	cl, err := Start(Options{
		Nodes: nodes, Store: st, BaseDir: t.TempDir(), Policy: "sweb",
		LoaddPeriod: loaddPeriod,
		SnapshotDir: snapDir,
		Seed:        37,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitKnown(t, []int{0, 1, 2}, cl, nodes, 10*time.Second)

	base, _ := cl.ScrapeMetrics()

	// Zipf-skewed traffic: ~80% of requests hit the injected hotspot
	// until hotOn is flipped off, then the background set takes over.
	var hotOn atomic.Bool
	hotOn.Store(true)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		client := cl.NewClient()
		defer client.Close()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			p := bg[rng.Intn(len(bg))]
			if hotOn.Load() && rng.Float64() < 0.8 {
				p = hot
			}
			client.Get(p)
			time.Sleep(5 * time.Millisecond)
		}
	}()
	defer func() { close(stop); <-done }()

	waitFor(t, "the hotspot to draw over half the requests", 20*time.Second, func() bool {
		now, _ := cl.ScrapeMetrics()
		share, ok := hotShare(base, now, hot, minObs)
		return ok && share > hotDocShare
	})

	// The advisor's #1 recommendation is the injected hotspot — via the
	// in-process merge and via scraping every node's /sweb/heat.
	advs := heat.Advise(cl.MergedHeat())
	if len(advs) == 0 || advs[0].Path != hot {
		t.Fatalf("advisor top pick = %+v, want %s", advs, hot)
	}
	if advs[0].Owner != 0 {
		t.Fatalf("hotspot owner = %d, want 0", advs[0].Owner)
	}
	var dumps []heat.Dump
	for _, srv := range cl.Servers {
		d, err := Heat(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if !d.Enabled {
			t.Fatalf("node %d heat disabled", d.Node)
		}
		dumps = append(dumps, *d)
	}
	scraped := heat.Advise(heat.Merge(dumps))
	if len(scraped) == 0 || scraped[0].Path != hot {
		t.Fatalf("scraped advisor top pick = %+v, want %s", scraped, hot)
	}

	// A bundle written now carries each node's heat sketch.
	bundle, err := cl.WriteSnapshot("hot_doc")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(filepath.Base(bundle), "hot_doc") {
		t.Fatalf("bundle %s not named after hot_doc", bundle)
	}
	sawHot := false
	for i := 0; i < nodes; i++ {
		hb, err := os.ReadFile(filepath.Join(bundle, "node-node"+strconv.Itoa(i), "heat.json"))
		if err != nil {
			t.Fatalf("node %d heat.json missing from bundle: %v", i, err)
		}
		var d heat.Dump
		if err := json.Unmarshal(hb, &d); err != nil {
			t.Fatal(err)
		}
		if !d.Enabled {
			t.Fatalf("node %d bundled heat dump disabled", i)
		}
		for _, e := range d.Entries {
			if e.Path == hot {
				sawHot = true
			}
		}
	}
	if !sawHot {
		t.Fatalf("no bundled sketch tracks the hotspot %s", hot)
	}

	// Flatten the workload: the hotspot's share of the requests since
	// then falls under half.
	hotOn.Store(false)
	flat, _ := cl.ScrapeMetrics()
	waitFor(t, "the hotspot's share to fall under half", 30*time.Second, func() bool {
		now, _ := cl.ScrapeMetrics()
		share, ok := hotShare(flat, now, hot, minObs)
		return ok && share < hotDocShare
	})
}
