package flight

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sweb/internal/core"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Add(Record{Status: 200})
	if r.Total() != 0 || r.NotableTotal() != 0 {
		t.Fatal("nil recorder reported nonzero totals")
	}
	d := r.Dump()
	if d.Enabled {
		t.Fatal("nil recorder dumps Enabled=true")
	}
}

func TestNotableClassification(t *testing.T) {
	r := New(Config{Cap: 8, NotableCap: 8, SlowSeconds: 0.5})
	r.Add(Record{Status: 200, TotalSeconds: 0.1})  // healthy
	r.Add(Record{Status: 404, TotalSeconds: 0.1})  // error
	r.Add(Record{Status: 0, TotalSeconds: 0.1})    // failed write
	r.Add(Record{Status: 200, TotalSeconds: 0.9})  // slow
	r.Add(Record{Status: 302, TotalSeconds: 0.01}) // healthy redirect

	if got := r.Total(); got != 5 {
		t.Fatalf("Total = %d, want 5", got)
	}
	if got := r.NotableTotal(); got != 3 {
		t.Fatalf("NotableTotal = %d, want 3", got)
	}
	d := r.Dump()
	if len(d.Records) != 5 || len(d.Notable) != 3 {
		t.Fatalf("dump sizes = %d/%d, want 5/3", len(d.Records), len(d.Notable))
	}
	wantNotable := []string{NotableError, NotableError, NotableSlow}
	for i, rec := range d.Notable {
		if rec.Notable != wantNotable[i] {
			t.Errorf("notable[%d] class %q, want %q", i, rec.Notable, wantNotable[i])
		}
	}
	// Sequence numbers are assigned in add order.
	for i, rec := range d.Records {
		if rec.Seq != int64(i+1) {
			t.Fatalf("records[%d].Seq = %d, want %d", i, rec.Seq, i+1)
		}
	}
}

// TestAuditRingWraps: the recorder's cost tables are rewritten in place, so
// a dump already handed out must not see the decisions that follow it, a
// steady stream of records with tables allocates nothing, and a dump
// carries an infeasible node's infinite total as -1. Only the TableDepth
// most recent records keep their table.
func TestAuditRingWraps(t *testing.T) {
	r := New(Config{Cap: 4, NotableCap: 4})
	rec := func(i int) Record {
		return Record{Path: "/p", Status: 200, Target: i,
			Candidates: []core.CostBreakdown{{Node: i, Total: 1}, {Node: 9, Total: math.Inf(1), Infeasible: true}}}
	}
	for i := 0; i < 10; i++ {
		r.Add(rec(i))
	}
	got := r.Dump().Records
	if len(got) != 4 {
		t.Fatalf("dump holds %d records, want 4", len(got))
	}
	for i := 10; i < 10+TableDepth; i++ {
		r.Add(rec(i))
	}
	for i, d := range got {
		want := []core.CostBreakdown{{Node: 6 + i, Total: 1}, {Node: 9, Total: -1, Infeasible: true}}
		if d.Target != 6+i || d.Seq != int64(7+i) || len(d.Candidates) != 2 ||
			d.Candidates[0] != want[0] || d.Candidates[1] != want[1] {
			t.Fatalf("dump[%d] = %+v, want target %d seq %d and table %+v", i, d, 6+i, 7+i, want)
		}
	}
	steady := rec(0)
	if n := testing.AllocsPerRun(100, func() { r.Add(steady) }); n != 0 {
		t.Fatalf("Add with a cost table allocates %v times per record, want 0", n)
	}

	r = New(Config{Cap: TableDepth + 1})
	for i := 0; i <= TableDepth; i++ {
		r.Add(rec(i))
	}
	recs := r.Dump().Records
	if len(recs) != TableDepth+1 || recs[0].Candidates != nil || recs[1].Candidates[0].Node != 1 {
		t.Fatalf("%d records, oldest table %+v, next %+v; want %d with only the oldest bare",
			len(recs), recs[0].Candidates, recs[1].Candidates, TableDepth+1)
	}
	// The ring, grown to its size as records came, wraps oldest-first.
	for i := 0; i < TableDepth+5; i++ {
		r.Add(rec(i))
	}
	recs = r.Dump().Records
	for i, d := range recs {
		if want := int64(TableDepth + 6 + i); d.Seq != want {
			t.Fatalf("records[%d].Seq = %d after the wrap, want %d", i, d.Seq, want)
		}
	}
}

func TestSlowDisabled(t *testing.T) {
	r := New(Config{SlowSeconds: -1})
	r.Add(Record{Status: 200, TotalSeconds: 100})
	if got := r.NotableTotal(); got != 0 {
		t.Fatalf("slow routing disabled but NotableTotal = %d", got)
	}
}

func TestRingEvictionKeepsNotable(t *testing.T) {
	// A burst of healthy traffic wraps the recent ring but the one error
	// stays pinned in the notable ring — the whole point of the split.
	r := New(Config{Cap: 4, NotableCap: 4})
	r.Add(Record{Status: 500, Path: "/broken"})
	for i := 0; i < 10; i++ {
		r.Add(Record{Status: 200, Path: "/ok"})
	}
	d := r.Dump()
	if len(d.Records) != 4 {
		t.Fatalf("recent ring holds %d, want 4", len(d.Records))
	}
	for _, rec := range d.Records {
		if rec.Path == "/broken" {
			t.Fatal("evicted record still in recent ring")
		}
	}
	if len(d.Notable) != 1 || d.Notable[0].Path != "/broken" {
		t.Fatalf("notable ring = %+v, want the one /broken error", d.Notable)
	}
	// Oldest-first ordering after wrap.
	for i := 1; i < len(d.Records); i++ {
		if d.Records[i].Seq <= d.Records[i-1].Seq {
			t.Fatal("recent ring not oldest-first after wrap")
		}
	}
}

func TestSnapshotWritesBundle(t *testing.T) {
	dir := t.TempDir()
	r := New(Config{})
	r.Add(Record{Status: 200, Path: "/x", TotalSeconds: 0.01})
	nodes := []NodeState{
		{
			Name:    "node0",
			Metrics: []byte("# TYPE sweb_inflight gauge\nsweb_inflight 0\n"),
			Status:  []byte(`{"id":0}`),
			Flight:  r.Dump(),
			Conns:   []int{1, 2},
		},
		{Name: "node1", Err: "connection refused"},
	}
	bundle, err := Snapshot(SnapshotOptions{Dir: dir, Reason: "test", CPUSeconds: 0.01}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{
		"MANIFEST.json",
		"profiles/goroutine.pprof",
		"profiles/heap.pprof",
		"node-node0/metrics.prom",
		"node-node0/status.json",
		"node-node0/flight.json",
		"node-node0/conns.json",
		"node-node1/error.txt",
	} {
		fi, err := os.Stat(filepath.Join(bundle, rel))
		if err != nil {
			t.Fatalf("bundle missing %s: %v", rel, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("bundle file %s is empty", rel)
		}
	}
	man, err := os.ReadFile(filepath.Join(bundle, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"reason": "test"`, `"node0"`, `"node1"`} {
		if !strings.Contains(string(man), want) {
			t.Fatalf("manifest missing %s:\n%s", want, man)
		}
	}
}

func TestSnapshotNeedsDir(t *testing.T) {
	if _, err := Snapshot(SnapshotOptions{}, nil); err == nil {
		t.Fatal("snapshot without a directory did not error")
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"node0":        "node0",
		"alert-x/../y": "alert-x----y",
		"../../etc":    "etc",
		"":             "x",
		"---":          "x",
	}
	for in, want := range cases {
		if got := sanitizeName(in); got != want {
			t.Errorf("sanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}
