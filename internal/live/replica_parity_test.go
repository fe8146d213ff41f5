package live

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"sweb/internal/httpd"
	"sweb/internal/metrics"
	"sweb/internal/simsrv"
	"sweb/internal/storage"
	"sweb/internal/workload"
)

// replicaParityStore is the shared fixture: one 32 KiB document owned by
// node 0 with a replica on node 1, in a 3-node cluster whose node 2 must
// fetch it remotely.
func replicaParityStore(t *testing.T) *storage.Store {
	t.Helper()
	st := storage.NewStore(3)
	if err := st.Add(storage.File{Path: "/rep.html", Size: 32 << 10, Owner: 0}); err != nil {
		t.Fatal(err)
	}
	if err := st.AddReplica("/rep.html", 1); err != nil {
		t.Fatal(err)
	}
	return st
}

// fetchSources extracts per-source counts of sweb_replica_fetch_total for
// path from a sample set, plus the sorted label-key schema of the family.
func fetchSources(samples []metrics.Sample, path string) (map[string]float64, []string) {
	out := make(map[string]float64)
	var schema []string
	for _, s := range samples {
		if s.Name != "sweb_replica_fetch_total" || s.Labels["path"] != path {
			continue
		}
		out[s.Labels["source"]] += s.Value
		keys := make([]string, 0, len(s.Labels))
		for k := range s.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		schema = keys
	}
	return out, schema
}

// maxReplicaGauge returns the largest sweb_heat_replicas value any sample
// reports for path.
func maxReplicaGauge(samples []metrics.Sample, path string) float64 {
	var max float64
	for _, s := range samples {
		if s.Name == "sweb_heat_replicas" && s.Labels["path"] == path && s.Value > max {
			max = s.Value
		}
	}
	return max
}

// simReplicaRun drives the DES substrate with round-robin scheduling (so
// serves land on every node, including the replica-less node 2) and
// returns all nodes' metric samples. killOwner takes the primary out of
// the pool before any request arrives.
func simReplicaRun(t *testing.T, killOwner bool) []metrics.Sample {
	t.Helper()
	st := replicaParityStore(t)
	cfg := simsrv.MeikoConfig(3, st)
	cfg.Policy = simsrv.PolicyRoundRobin
	cfg.CacheOff = true // keep every node-2 serve a remote fetch
	cfg.Seed = 11
	cl, err := simsrv.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if killOwner {
		cl.FailNodeAt(0, 0)
	}
	burst := workload.Burst{RPS: 5, DurationSeconds: 4, Jitter: true}
	arr, err := burst.Generate(workload.UniformPicker([]string{"/rep.html"}), nil,
		rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	if res := cl.RunSchedule(arr); res.Completed == 0 {
		t.Fatal("simulated burst completed nothing")
	}
	var samples []metrics.Sample
	for i := 0; i < cl.Nodes(); i++ {
		var buf bytes.Buffer
		if err := cl.Registry(i).WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		ss, err := metrics.ParseText(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, ss...)
	}
	return samples
}

// liveScrape pulls and parses /sweb/metrics from every live node that
// answers.
func liveScrape(t *testing.T, cl *Cluster) []metrics.Sample {
	t.Helper()
	var samples []metrics.Sample
	for _, srv := range cl.Servers {
		if srv == nil || srv.Closed() {
			continue
		}
		ss, err := Metrics(srv.Addr())
		if err != nil {
			continue
		}
		samples = append(samples, ss...)
	}
	return samples
}

// TestSimLiveReplicaParity is the differential harness for replica-source
// selection: both substrates route node 2's internal fetches through
// core.RankSources, so on an idle cluster both must pull from the primary
// (set-order tie-break), both must flip to the surviving replica when the
// primary dies, and both must expose the identical
// sweb_replica_fetch_total schema.
func TestSimLiveReplicaParity(t *testing.T) {
	const path = "/rep.html"

	// --- DES substrate, healthy and with the owner dead.
	simHealthy := simReplicaRun(t, false)
	simSrc, simSchema := fetchSources(simHealthy, path)
	if len(simSrc) != 1 || simSrc["0"] == 0 {
		t.Fatalf("sim healthy fetch sources = %v, want all from primary 0", simSrc)
	}
	if g := maxReplicaGauge(simHealthy, path); g != 2 {
		t.Fatalf("sim sweb_heat_replicas = %v, want 2", g)
	}
	simKilledSrc, _ := fetchSources(simReplicaRun(t, true), path)
	if len(simKilledSrc) != 1 || simKilledSrc["1"] == 0 {
		t.Fatalf("sim owner-dead fetch sources = %v, want all from survivor 1", simKilledSrc)
	}

	// --- Live substrate: same store layout, requests pinned to node 2.
	st := replicaParityStore(t)
	cl, err := Start(Options{
		Nodes: 3, Store: st, BaseDir: t.TempDir(), Policy: "rr",
		Node: httpd.Config{
			CacheOff:      true,
			LoaddPeriod:   50 * time.Millisecond,
			FetchAttempts: 2,
			FetchBackoff:  5 * time.Millisecond,
		},
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Node 2 ranks only the replicas it has heard; wait for both.
	waitKnown(t, []int{2}, cl, 3, 10*time.Second)
	client := cl.NewClient()
	defer client.Close()
	for i := 0; i < 6; i++ {
		res, err := client.GetVia(2, path)
		if err != nil || res.Status != 200 {
			t.Fatalf("healthy get %d: res=%+v err=%v", i, res, err)
		}
	}
	liveSrc, liveSchema := fetchSources(liveScrape(t, cl), path)
	if len(liveSrc) != 1 || liveSrc["0"] == 0 {
		t.Fatalf("live healthy fetch sources = %v, want all from primary 0", liveSrc)
	}
	if g := maxReplicaGauge(liveScrape(t, cl), path); g != 2 {
		t.Fatalf("live sweb_heat_replicas = %v, want 2", g)
	}

	// Kill the primary: the rotation's next attempt must land on the
	// surviving replica with no client-visible failure.
	if err := cl.Kill(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		res, err := client.GetVia(2, path)
		if err != nil || res.Status != 200 {
			t.Fatalf("owner-dead get %d: res=%+v err=%v", i, res, err)
		}
	}
	liveKilledSrc, _ := fetchSources(liveScrape(t, cl), path)
	if liveKilledSrc["1"] == 0 {
		t.Fatalf("live owner-dead fetch sources = %v, want failover traffic from survivor 1", liveKilledSrc)
	}
	if liveKilledSrc["0"] != liveSrc["0"] {
		t.Fatalf("live fetches still crediting dead primary: before=%v after=%v", liveSrc, liveKilledSrc)
	}

	// --- The two substrates must expose the identical metric schema: the
	// differential harness diffs label-key sets, not just values.
	if !reflect.DeepEqual(simSchema, liveSchema) {
		t.Fatalf("replica-fetch schemas diverge:\nsim:  %v\nlive: %v", simSchema, liveSchema)
	}
	// And the healthy-phase choice sequence agrees: one source, the same
	// source, on both substrates.
	simKeys, liveKeys := sortedKeys(simSrc), sortedKeys(liveSrc)
	if !reflect.DeepEqual(simKeys, liveKeys) {
		t.Fatalf("healthy replica choices diverge: sim=%v live=%v", simKeys, liveKeys)
	}
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
