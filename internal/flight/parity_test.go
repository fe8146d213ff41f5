package flight_test

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"sweb/internal/des"
	"sweb/internal/flight"
	"sweb/internal/httpd"
	"sweb/internal/live"
	"sweb/internal/simsrv"
	"sweb/internal/storage"
	"sweb/internal/workload"
)

// simFlightDumps drives a simulated burst — plus one request for a path
// that does not exist, guaranteeing a notable record — and returns every
// node's black-box dump.
func simFlightDumps(t *testing.T) []flight.Dump {
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
	arr = append(arr, workload.Arrival{At: des.Second, Path: "/no-such-file.html"})
	res := cl.RunSchedule(arr)
	if res.Completed == 0 {
		t.Fatal("simulated burst completed nothing")
	}
	dumps := make([]flight.Dump, 0, cl.Nodes())
	for i := 0; i < cl.Nodes(); i++ {
		dumps = append(dumps, cl.FlightDump(i))
	}
	return dumps
}

// liveFlightDumps drives a short live run — again with one 404 — and
// scrapes every node's /sweb/flight.
func liveFlightDumps(t *testing.T) []flight.Dump {
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
	if res, err := client.Get("/no-such-file.html"); err != nil || res.Status != 404 {
		t.Fatalf("404 get: res=%+v err=%v", res, err)
	}
	dumps := make([]flight.Dump, 0, len(cl.Servers))
	for _, srv := range cl.Servers {
		d, err := live.Flight(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		dumps = append(dumps, *d)
	}
	return dumps
}

// servedRecord picks a healthy scheduled record: both substrates produce
// them with the same omitempty behaviour (policy present, trace id and
// notable class absent), so their JSON key sets must match exactly.
func servedRecord(recs []flight.Record) *flight.Record {
	for i, r := range recs {
		if r.Status == 200 && r.Policy != "" && r.Notable == "" {
			return &recs[i]
		}
	}
	return nil
}

func recordKeys(t *testing.T, rec flight.Record) []string {
	t.Helper()
	b, err := json.Marshal(rec)
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

// records gathers every dump's recent records, or with notable set its
// notable ring.
func records(dumps []flight.Dump, notable bool) []flight.Record {
	var out []flight.Record
	for _, d := range dumps {
		if notable {
			out = append(out, d.Notable...)
		} else {
			out = append(out, d.Records...)
		}
	}
	return out
}

// TestSimLiveFlightParity is the black-box acceptance criterion: the DES
// and the live httpd fill the same Record schema, obey the same timing
// invariants and retain their errors in the notable ring.
func TestSimLiveFlightParity(t *testing.T) {
	simD := simFlightDumps(t)
	liveD := liveFlightDumps(t)

	for _, sub := range []struct {
		name  string
		dumps []flight.Dump
	}{{"sim", simD}, {"live", liveD}} {
		all := records(sub.dumps, false)
		if len(all) == 0 {
			t.Fatalf("%s: no flight records", sub.name)
		}
		notable := records(sub.dumps, true)
		if len(notable) == 0 {
			t.Fatalf("%s: notable ring empty despite a 404", sub.name)
		}
		for _, r := range all {
			if r.TotalSeconds < 0 {
				t.Errorf("%s: negative total in %+v", sub.name, r)
			}
			if r.TTFBSeconds != -1 && (r.TTFBSeconds < 0 || r.TTFBSeconds > r.TotalSeconds+1e-9) {
				t.Errorf("%s: ttfb %v outside [0,total=%v] for %s",
					sub.name, r.TTFBSeconds, r.TotalSeconds, r.Path)
			}
			if r.Seq <= 0 {
				t.Errorf("%s: unassigned seq in %+v", sub.name, r)
			}
		}
	}

	simRec := servedRecord(records(simD, false))
	liveRec := servedRecord(records(liveD, false))
	if simRec == nil || liveRec == nil {
		t.Fatalf("no served 200 record: sim=%v live=%v", simRec, liveRec)
	}
	if simRec.Target < 0 || liveRec.Target < 0 {
		t.Fatalf("served records must carry a target: sim=%d live=%d",
			simRec.Target, liveRec.Target)
	}
	sk, lk := recordKeys(t, *simRec), recordKeys(t, *liveRec)
	if !reflect.DeepEqual(sk, lk) {
		t.Fatalf("record schemas diverge:\nsim:  %v\nlive: %v", sk, lk)
	}
}
