package heat_test

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"sweb/internal/heat"
	"sweb/internal/httpd"
	"sweb/internal/live"
	"sweb/internal/simsrv"
	"sweb/internal/storage"
	"sweb/internal/workload"
)

// simHeatDumps drives a simulated burst and returns every node's
// document-heat dump.
func simHeatDumps(t *testing.T) []heat.Dump {
	t.Helper()
	st := storage.NewStore(3)
	paths := storage.UniformSet(st, 12, 32*1024)
	cl, err := simsrv.New(simsrv.MeikoConfig(3, st))
	if err != nil {
		t.Fatal(err)
	}
	burst := workload.Burst{RPS: 20, DurationSeconds: 5, Jitter: true}
	arr, err := burst.Generate(workload.UniformPicker(paths), nil, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	res := cl.RunSchedule(arr)
	if res.Completed == 0 {
		t.Fatal("simulated burst completed nothing")
	}
	dumps := make([]heat.Dump, 0, cl.Nodes())
	for i := 0; i < cl.Nodes(); i++ {
		dumps = append(dumps, cl.HeatDump(i))
	}
	return dumps
}

// liveHeatDumps drives a short live run and scrapes every node's
// /sweb/heat.
func liveHeatDumps(t *testing.T) []heat.Dump {
	t.Helper()
	st := storage.NewStore(2)
	paths := storage.UniformSet(st, 8, 4096)
	cl, err := live.Start(live.Options{
		Nodes: 2, Store: st, BaseDir: t.TempDir(), Policy: "sweb",
		Node: httpd.Config{LoaddPeriod: 50 * time.Millisecond},
		Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	client := cl.NewClient()
	for _, p := range paths {
		if res, err := client.Get(p); err != nil || res.Status != 200 {
			t.Fatalf("get %s: res=%+v err=%v", p, res, err)
		}
	}
	dumps := make([]heat.Dump, 0, len(cl.Servers))
	for _, srv := range cl.Servers {
		d, err := live.Heat(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		dumps = append(dumps, *d)
	}
	return dumps
}

// jsonKeys marshals v and returns its sorted top-level JSON key set.
func jsonKeys(t *testing.T, v any) []string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestSimLiveHeatParity is the acceptance criterion: the DES and the
// live httpd fill the same heat Dump schema, obey the same accounting
// invariants, and render through the one shared renderer.
func TestSimLiveHeatParity(t *testing.T) {
	simD := simHeatDumps(t)
	liveD := liveHeatDumps(t)

	for _, sub := range []struct {
		name  string
		dumps []heat.Dump
	}{{"sim", simD}, {"live", liveD}} {
		var total uint64
		for _, d := range sub.dumps {
			if !d.Enabled {
				t.Fatalf("%s: node %d dump disabled", sub.name, d.Node)
			}
			total += d.Total
			var counted uint64
			for _, e := range d.Entries {
				counted += e.Count
				if e.Relays > e.Count || e.Misses > e.Count {
					t.Errorf("%s: aux counts exceed requests in %+v", sub.name, e)
				}
				if e.LatencySum < 0 || e.Bytes < 0 {
					t.Errorf("%s: negative accumulator in %+v", sub.name, e)
				}
			}
			// With fewer distinct paths than K, nothing was evicted and
			// the tracked counts must sum exactly to the total.
			if counted != d.Total {
				t.Errorf("%s: node %d tracked %d of %d observations",
					sub.name, d.Node, counted, d.Total)
			}
		}
		if total == 0 {
			t.Fatalf("%s: no heat observations", sub.name)
		}
		m := heat.Merge(sub.dumps)
		if m.Total != total || len(m.Entries) == 0 {
			t.Fatalf("%s: merge lost observations: %+v", sub.name, m)
		}
		out := heat.Render(sub.name+" heat", m, 0)
		if !strings.Contains(out, "path") || !strings.Contains(out, "relays") {
			t.Fatalf("%s: renderer output missing headers:\n%s", sub.name, out)
		}
		if advs := heat.Advise(m); len(advs) == 0 {
			t.Fatalf("%s: advisor returned nothing", sub.name)
		}
	}

	// The marshalled schemas must match key-for-key at every level.
	sd, ld := simD[0], liveD[0]
	if len(sd.Entries) == 0 || len(ld.Entries) == 0 {
		t.Fatal("need at least one entry per substrate")
	}
	if sk, lk := jsonKeys(t, sd), jsonKeys(t, ld); !reflect.DeepEqual(sk, lk) {
		t.Fatalf("dump schemas diverge:\nsim:  %v\nlive: %v", sk, lk)
	}
	if sk, lk := jsonKeys(t, sd.Entries[0]), jsonKeys(t, ld.Entries[0]); !reflect.DeepEqual(sk, lk) {
		t.Fatalf("entry schemas diverge:\nsim:  %v\nlive: %v", sk, lk)
	}
}
