package live

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"sweb/internal/httpd"
	"sweb/internal/leakcheck"
	"sweb/internal/metrics"
	"sweb/internal/nodeobs"
	"sweb/internal/rebalance"
	"sweb/internal/storage"
)

// TestRebalanceRoundOverHTTP drives the leader round swebd runs — heat
// scraped from every node's /sweb/heat, actions broadcast through
// /sweb/replicate — against a three-node cluster. A hot document owned by
// node 0, whose path needs escaping inside a query ('&', '=', '+'), lands
// on node 1 until one round replicates it there; once the skew stops and
// the background documents take over the traffic, the next round drains
// the copy again.
func TestRebalanceRoundOverHTTP(t *testing.T) {
	leakcheck.Check(t)
	const hot = "/hot&x=1+2.html"
	st := storage.NewStore(3)
	bg := storage.UniformSet(st, 6, 2048)
	st.MustAdd(storage.File{Path: hot, Size: 4096, Owner: 0})
	dir := t.TempDir()
	cl, err := Start(Options{
		// Round-robin serves where a request lands, so node 1 relays the
		// hot document from its owner instead of redirecting.
		Nodes: 3, Store: st, BaseDir: dir, Policy: "rr",
		Node: httpd.Config{LoaddPeriod: 50 * time.Millisecond},
		Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitKnown(t, []int{0, 1, 2}, cl, 3, 10*time.Second)

	ctrl := rebalance.New(rebalance.Config{
		MaxReplicas: 2, BudgetPerTick: 1, HotShare: 0.5, CoolShare: 0.2,
		ForTicks: 1, CooldownTicks: 0,
	})
	round := func(want rebalance.Action) {
		t.Helper()
		acts, errs := RebalanceRound(ctrl, st, cl.peers)
		if len(errs) > 0 {
			t.Fatalf("round errors: %v", errs)
		}
		if len(acts) != 1 || acts[0].Kind != want.Kind || acts[0].Path != want.Path || acts[0].Node != want.Node {
			t.Fatalf("round actions = %+v, want one %s %s@%d", acts, want.Kind, want.Path, want.Node)
		}
	}
	actions := func(action string) []float64 {
		t.Helper()
		var out []float64
		for _, addr := range cl.Addrs() {
			samples, err := Metrics(addr)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, MetricValue(samples, nodeobs.Rebalance, metrics.Labels{"action": action}))
		}
		return out
	}

	client := cl.NewClient()
	defer client.Close()
	for i := 0; i < 40; i++ {
		if res, err := client.GetVia(1, hot); err != nil || res.Status != 200 {
			t.Fatalf("hot fetch %d: res=%+v err=%v", i, res, err)
		}
	}
	round(rebalance.Action{Kind: "add", Path: hot, Node: 1})
	copyPath := filepath.Join(nodeDocRoot(dir, 1), "hot&x=1+2.html")
	got, err := os.ReadFile(copyPath)
	if err != nil {
		t.Fatalf("replica not in node 1's docroot: %v", err)
	}
	want, err := os.ReadFile(filepath.Join(nodeDocRoot(dir, 0), "hot&x=1+2.html"))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("replica bytes differ from the owner's (err %v)", err)
	}
	if reps := st.Replicas(hot); !slices.Equal(reps, []int{0, 1}) {
		t.Fatalf("replica set after the add = %v, want [0 1]", reps)
	}
	if adds := actions("add"); !slices.Equal(adds, []float64{0, 1, 0}) {
		t.Fatalf("add actions per node = %v, want only node 1's", adds)
	}

	for i := 0; i < 240; i++ {
		if res, err := client.Get(bg[i%len(bg)]); err != nil || res.Status != 200 {
			t.Fatalf("background fetch %d: res=%+v err=%v", i, res, err)
		}
	}
	round(rebalance.Action{Kind: "drop", Path: hot, Node: 1})
	if _, err := os.Stat(copyPath); !os.IsNotExist(err) {
		t.Fatalf("dropped replica still in node 1's docroot (stat: %v)", err)
	}
	if reps := st.Replicas(hot); len(reps) > 1 {
		t.Fatalf("replica set after the drop = %v, want the owner alone", reps)
	}
	if drops := actions("drop"); !slices.Equal(drops, []float64{0, 1, 0}) {
		t.Fatalf("drop actions per node = %v, want only node 1's", drops)
	}
	if res, err := client.GetVia(1, hot); err != nil || res.Status != 200 {
		t.Fatalf("hot fetch after the drop: res=%+v err=%v", res, err)
	}
}
