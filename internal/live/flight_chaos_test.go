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
	"sweb/internal/storage"
)

// TestFlightSnapshotOnNodeDown is the flight recorder's acceptance
// scenario: traffic fills every node's black box, a node is killed, and
// once the survivors' tables stop offering it one cross-node snapshot
// bundle is written — process profiles, plus flight rings, metrics, and
// status from every surviving node, with the corpse recorded as a hole.
// When SWEB_SNAPSHOT_DIR is set (CI does this) the bundle lands there, so
// a failing chaos run leaves an artifact to download.
func TestFlightSnapshotOnNodeDown(t *testing.T) {
	leakcheck.Check(t)
	const (
		nodes        = 3
		dead         = 2
		loaddPeriod  = 50 * time.Millisecond
		loaddTimeout = 400 * time.Millisecond
		reason       = "node-down"
	)
	snapDir := os.Getenv("SWEB_SNAPSHOT_DIR")
	if snapDir == "" {
		snapDir = t.TempDir()
	} else if err := os.MkdirAll(snapDir, 0o755); err != nil {
		t.Fatal(err)
	}
	st := storage.NewStore(nodes)
	paths := storage.UniformSet(st, 6, 2048)
	cl, err := Start(Options{
		Nodes: nodes, Store: st, BaseDir: t.TempDir(), Policy: "sweb",
		Node: httpd.Config{
			LoaddPeriod:  loaddPeriod,
			LoaddTimeout: loaddTimeout,
			SnapshotDir:  snapDir,
		},
		Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitKnown(t, []int{0, 1, 2}, cl, nodes, 10*time.Second)

	// Fill the black boxes before the fault: the bundle must carry the
	// traffic that preceded the failure, that is its whole point.
	client := cl.NewClient()
	defer client.Close()
	for _, p := range paths {
		if res, err := client.Get(p); err != nil || res.Status != 200 {
			t.Fatalf("get %s: res=%+v err=%v", p, res, err)
		}
	}

	if got := cl.Bundles(); len(got) != 0 {
		t.Fatalf("healthy cluster already wrote bundles: %v", got)
	}

	if err := cl.Kill(dead); err != nil {
		t.Fatal(err)
	}
	waitAvailable(t, cl, []int{0, 1}, dead, false)
	bundle, err := cl.WriteSnapshot(reason)
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.Bundles(); len(got) != 1 || got[0] != bundle {
		t.Fatalf("cluster lists bundles %v, want [%s]", got, bundle)
	}
	if !strings.Contains(filepath.Base(bundle), reason) {
		t.Fatalf("bundle %s not named after its reason", bundle)
	}

	// Process profiles captured programmatically.
	for _, rel := range []string{"profiles/goroutine.pprof", "profiles/heap.pprof"} {
		fi, err := os.Stat(filepath.Join(bundle, rel))
		if err != nil || fi.Size() == 0 {
			t.Fatalf("bundle missing %s: err=%v", rel, err)
		}
	}

	// The manifest indexes the bundle and names every node, dead included.
	mb, err := os.ReadFile(filepath.Join(bundle, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man flight.Manifest
	if err := json.Unmarshal(mb, &man); err != nil {
		t.Fatal(err)
	}
	if man.Reason != reason {
		t.Fatalf("manifest reason %q", man.Reason)
	}
	if len(man.Nodes) != nodes {
		t.Fatalf("manifest nodes %v, want %d entries", man.Nodes, nodes)
	}

	// Every survivor contributed its flight rings, metrics, and status.
	for _, i := range []int{0, 1} {
		ndir := filepath.Join(bundle, "node-node"+strconv.Itoa(i))
		fb, err := os.ReadFile(filepath.Join(ndir, "flight.json"))
		if err != nil {
			t.Fatalf("node %d flight rings missing: %v", i, err)
		}
		var d flight.Dump
		if err := json.Unmarshal(fb, &d); err != nil {
			t.Fatal(err)
		}
		if !d.Enabled || d.Total == 0 || len(d.Records) == 0 {
			t.Fatalf("node %d black box empty in bundle: %+v", i, d)
		}
		pm, err := os.ReadFile(filepath.Join(ndir, "metrics.prom"))
		if err != nil || !strings.Contains(string(pm), "sweb_inflight") {
			t.Fatalf("node %d metrics snapshot unusable: err=%v", i, err)
		}
		if _, err := os.Stat(filepath.Join(ndir, "status.json")); err != nil {
			t.Fatalf("node %d status missing: %v", i, err)
		}
	}

	// The corpse is an explicit hole, not a silent omission.
	eb, err := os.ReadFile(filepath.Join(bundle, "node-node"+strconv.Itoa(dead), "error.txt"))
	if err != nil {
		t.Fatalf("dead node left no error marker: %v", err)
	}
	if !strings.Contains(string(eb), "down") {
		t.Fatalf("dead node error marker says %q", eb)
	}
}
