package core

import (
	"math"
	"reflect"
	"testing"

	"sweb/internal/oracle"
	"sweb/internal/storage"
)

// recordingPolicy answers target and remembers the request it was asked
// about, so a test sees what the spine fed the policy.
type recordingPolicy struct {
	target int
	asked  []Request
}

func (p *recordingPolicy) Name() string { return "recording" }

func (p *recordingPolicy) Choose(req Request, local int, loads []NodeLoad) Decision {
	p.asked = append(p.asked, req)
	if req.PinnedLocal {
		return Decision{Target: local, Estimate: 1}
	}
	return Decision{Target: p.target, Estimate: 2}
}

// TestAnalyzeRules is the facts → action table of the request lifecycle
// (DESIGN.md "Request lifecycle"). Rule (a), analyze on every request, is
// the executors' and is pinned by their conformance tests.
func TestAnalyzeRules(t *testing.T) {
	doc := storage.File{Path: "/d", Size: 1024, Owner: 1}
	loads := evenLoads(3)
	loads[2].Available = false
	for _, c := range []struct {
		name      string
		facts     Facts
		target    int // what the policy answers
		action    Action
		planned   int // Plan.Target
		asked     bool
		pinnedReq bool
	}{
		// (b) a missing document is NotFound before any policy runs.
		{"not found", Facts{File: storage.File{Path: "/nope"}}, 1, NotFound, 0, false, false},
		// (c) CGI and POST run the policy, pinned, and are served here.
		{"cgi", Facts{File: storage.File{Path: "/q.cgi", Owner: 1, CGI: true}, Found: true}, 1, Serve, 0, true, true},
		{"registered cgi not in the manifest", Facts{File: storage.File{Path: "/x", CGI: true}}, 1, Serve, 0, true, true},
		{"post", Facts{File: doc, Found: true, Pinned: true}, 1, Serve, 0, true, true},
		// (d) one decision: an available target is a redirect, anything
		// else is served here.
		{"redirect", Facts{File: doc, Found: true}, 1, Redirect, 1, true, false},
		{"serve", Facts{File: doc, Found: true}, 0, Serve, 0, true, false},
		{"unavailable target", Facts{File: doc, Found: true}, 2, Serve, 0, true, false},
		{"out of range target", Facts{File: doc, Found: true}, 7, Serve, 0, true, false},
	} {
		p := &recordingPolicy{target: c.target}
		plan := Analyze(p, &c.facts, 0, loads)
		if plan.Action != c.action || plan.Target != c.planned {
			t.Errorf("%s: plan %v -> %d, want %v -> %d", c.name, plan.Action, plan.Target, c.action, c.planned)
		}
		if asked := len(p.asked) == 1; asked != c.asked {
			t.Errorf("%s: policy asked %d times", c.name, len(p.asked))
			continue
		}
		if c.asked && p.asked[0].PinnedLocal != c.pinnedReq {
			t.Errorf("%s: PinnedLocal = %v, want %v", c.name, p.asked[0].PinnedLocal, c.pinnedReq)
		}
		if !c.asked && plan.Decision.Estimate != 0 {
			t.Errorf("%s: a plan without a policy run carries estimate %v", c.name, plan.Decision.Estimate)
		}
	}
}

// TestFactsRequest: the one builder keeps the oracle's summation order, so
// the estimate's bits match the expression both substrates used to write,
// and carries every input the cost model reads.
func TestFactsRequest(t *testing.T) {
	d := oracle.Demand{BaseOps: 0.6e6, OpsPerByte: 0.12, CGIOps: 1.7e5, DiskBytesPerByte: 1.1}
	f := Facts{File: storage.File{Path: "/d", Size: 1536 << 10, Owner: 2, Replicas: []int{2, 0},
		CGIOps: 3.3e6}, Found: true, Demand: d, Redirects: 1, CachedLocal: true, CachedAt: []bool{false, true, false}}
	got := f.Request(1)
	wantOps := d.BaseOps + d.OpsPerByte*float64(f.Size) + d.CGIOps + f.CGIOps
	if math.Float64bits(got.Ops) != math.Float64bits(wantOps) {
		t.Fatalf("Ops = %v, want %v bit for bit", got.Ops, wantOps)
	}
	want := Request{Path: "/d", Size: f.Size, Owner: 2, Replicas: []int{2, 0}, Ops: wantOps,
		DiskBytes: d.DiskBytesPerByte * float64(f.Size), Arrived: 1, RedirectCount: 1,
		CachedLocal: true, CachedAt: []bool{false, true, false}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Request = %+v\nwant      %+v", got, want)
	}
	if r := (&Facts{File: storage.File{Path: "/gen", CGI: true}}).Request(1); r.Owner != 1 || !r.PinnedLocal {
		t.Fatalf("generated output: owner %d pinned %v, want here and pinned", r.Owner, r.PinnedLocal)
	}
}

// TestFactsFetch: where a served request's bytes come from.
func TestFactsFetch(t *testing.T) {
	doc := Facts{File: storage.File{Path: "/d", Owner: 0, Replicas: []int{0, 2}}, Found: true}
	cgi := Facts{File: storage.File{Path: "/q.cgi", Owner: 0, CGI: true}, Found: true}
	for _, c := range []struct {
		name  string
		facts Facts
		self  int
		hit   bool
		want  Fetch
	}{
		{"cgi", cgi, 0, false, FetchCGI},
		{"cgi ignores the cache", cgi, 1, true, FetchCGI},
		{"cache hit anywhere", doc, 1, true, FetchCache},
		{"primary", doc, 0, false, FetchDisk},
		{"replica", doc, 2, false, FetchDisk},
		{"no copy", doc, 1, false, FetchPeer},
	} {
		if got := c.facts.Fetch(c.self, c.hit); got != c.want {
			t.Errorf("%s: Fetch = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestFactsSources: RankSources without self, priced on disk and
// interconnect only — a peer's cache digest does not reorder it.
func TestFactsSources(t *testing.T) {
	loads := evenLoads(3)
	loads[0].DiskLoad = 5 // the primary is busy: replica 2 is cheaper
	f := Facts{File: storage.File{Path: "/d", Size: 1 << 20, Owner: 0, Replicas: []int{0, 1, 2}},
		Found: true, Demand: oracle.DefaultDemand()}
	if got := f.Sources(1, loads); !reflect.DeepEqual(got, []int{2, 0}) {
		t.Fatalf("Sources at 1 = %v, want [2 0]", got)
	}
	f.CachedAt = []bool{true, false, false} // would make the primary free
	if got := f.Sources(1, loads); !reflect.DeepEqual(got, []int{2, 0}) {
		t.Fatalf("Sources with a digest hint = %v, want [2 0]", got)
	}
}

// TestNewPolicy: every configured name builds its policy; the empty name
// is SWEB and an unknown one is an error.
func TestNewPolicy(t *testing.T) {
	for name, want := range map[string]string{"": "SWEB", PolicySWEB: "SWEB",
		PolicyRoundRobin: "Round Robin", PolicyFileLocality: "File Locality", PolicyCPUOnly: "CPU Only"} {
		p, err := NewPolicy(name, DefaultParams())
		if err != nil || p.Name() != want {
			t.Errorf("NewPolicy(%q) = %v, %v; want %s", name, p, err, want)
		}
	}
	if _, err := NewPolicy("?", DefaultParams()); err == nil {
		t.Error("unknown policy accepted")
	}
}
