package simsrv

import (
	"bytes"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"sweb/internal/des"
	"sweb/internal/metrics"
	"sweb/internal/storage"
	"sweb/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden from this run")

// simSeriesKeys renders every node's registry and returns the sorted
// "<node> name{labels}" key of every sample.
func simSeriesKeys(t *testing.T, cl *Cluster) []string {
	t.Helper()
	var keys []string
	for x := 0; x < cl.Nodes(); x++ {
		var buf bytes.Buffer
		if err := cl.Registry(x).WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		samples, err := metrics.ParseText(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			keys = append(keys, strconv.Itoa(x)+" "+s.Key())
		}
	}
	sort.Strings(keys)
	return keys
}

// checkGolden compares keys with testdata/<name>.golden, one key per line.
func checkGolden(t *testing.T, name string, keys []string) {
	t.Helper()
	file := filepath.Join("testdata", name+".golden")
	got := strings.Join(keys, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wanted := make(map[string]bool)
	for _, k := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		wanted[k] = true
	}
	for _, k := range keys {
		if !wanted[k] {
			t.Errorf("%s: unexpected series %s", name, k)
		}
		delete(wanted, k)
	}
	for k := range wanted {
		t.Errorf("%s: series %s missing", name, k)
	}
}

// TestSimExpositionSeriesIdentity pins which series each simulated node
// exposes and when: a fresh cluster must not pre-register any per-event,
// per-phase, per-cause or per-path series, and a seeded burst with a 404,
// 302s, relays and one replica add must create exactly the series it
// always has. Regenerate with -update-golden only for an intended change.
func TestSimExpositionSeriesIdentity(t *testing.T) {
	st := storage.NewStore(3)
	paths := storage.UniformSet(st, 6, 256<<10)
	cl, err := New(MeikoConfig(3, st))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "series_fresh", simSeriesKeys(t, cl))

	burst := workload.Burst{RPS: 12, DurationSeconds: 5, Jitter: true}
	arr, err := burst.Generate(workload.UniformPicker(paths), nil, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	arr = append(arr, workload.Arrival{At: des.Second, Path: "/no-such-file.html"})
	// paths[0] is owned by node 0; give node 1 a copy mid-burst.
	cl.Sim.At(2*des.Second, func() { cl.Replicate(paths[0], 1, nil) })
	res := cl.RunSchedule(arr)
	if res.Completed == 0 || res.Redirects == 0 {
		t.Fatalf("burst completed %d with %d redirects; the golden needs both", res.Completed, res.Redirects)
	}
	keys := simSeriesKeys(t, cl)
	for _, want := range []string{
		`sweb_drops_total{cause="not_found"}`,
		`sweb_events_total{event="redirected"}`,
		`sweb_events_total{event="fetch-nfs"}`,
		`sweb_rebalance_actions_total{action="add"}`,
	} {
		found := false
		for _, k := range keys {
			if strings.HasSuffix(k, " "+want) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("served exposition lacks %s", want)
		}
	}
	checkGolden(t, "series_served", keys)
}
