package nodeobs

import (
	"fmt"
	"testing"

	"sweb/internal/core"
	"sweb/internal/trace"
)

// TestFetchSteps pins the vocabulary a fetch kind maps to: its event, its
// phase cell, and the heat inputs of the outcome it serves.
func TestFetchSteps(t *testing.T) {
	for _, c := range []struct {
		fetch                 core.Fetch
		kind                  trace.Kind
		cell                  string
		owner                 int
		hit, relay, miss, off bool // off: the miss a cache-less node reports
	}{
		{core.FetchDisk, trace.EvFetchLocal, "fetch_local", 3, false, false, true, false},
		{core.FetchCache, trace.EvFetchLocal, "fetch_local", 3, true, false, false, false},
		{core.FetchPeer, trace.EvFetchNFS, "fetch_nfs", 3, false, true, true, false},
		{core.FetchCGI, trace.EvCGI, "cgi", -1, false, false, false, false},
	} {
		if kind, cell := FetchStep(c.fetch); kind != c.kind || cell.String() != c.cell {
			t.Errorf("FetchStep(%v) = %s, %s; want %s, %s", c.fetch, kind, cell, c.kind, c.cell)
		}
		var o, off Outcome
		o.Fulfil(c.fetch, 3, 2, true)
		off.Fulfil(c.fetch, 3, 2, false)
		if !o.Fulfilled || o.Owner != c.owner || o.Replicas != 2 || o.CacheHit != c.hit ||
			o.Relay != c.relay || o.Miss != c.miss || off.Miss != c.off {
			t.Errorf("Fulfil(%v) = %+v (cache off: miss %v)", c.fetch, o, off.Miss)
		}
	}
	events, phases := Steps(core.Serve, core.FetchPeer)
	if fmt.Sprint(events, phases) != "[connected parsed analyzed fetch-nfs sent] [parse analyze fetch_nfs]" {
		t.Errorf("Steps(Serve, FetchPeer) = %v %v", events, phases)
	}
}

// TestStepsEndOnce pins the law the conservation tests of both substrates
// rest on: whatever the spine decides, a request the node connected takes
// connected once, first, and ends in exactly one terminal step, sent or
// redirected, last. So on every node, connected = sent + redirected + the
// connected requests that ended without a response.
func TestStepsEndOnce(t *testing.T) {
	for _, a := range []core.Action{core.Serve, core.Redirect, core.NotFound} {
		for _, f := range []core.Fetch{core.FetchDisk, core.FetchCache, core.FetchPeer, core.FetchCGI} {
			events, _ := Steps(a, f)
			count := map[trace.Kind]int{}
			for _, e := range events {
				count[e]++
			}
			last := events[len(events)-1]
			if events[0] != trace.EvConnected || count[trace.EvConnected] != 1 ||
				count[trace.EvSent]+count[trace.EvRedirected] != 1 ||
				(last != trace.EvSent && last != trace.EvRedirected) {
				t.Errorf("Steps(%v, %v) = %v: not connected once and one terminal step last", a, f, events)
			}
		}
	}
}

// TestHandleEnums pins the enums behind the handle tables to their
// vocabularies: every step kind indexes its own event series, and every
// cell names its own phase.
func TestHandleEnums(t *testing.T) {
	for i, k := range stepKinds {
		if got := eventIndex(k); got != i {
			t.Errorf("eventIndex(%s) = %d, want %d", k, got, i)
		}
	}
	if got := eventIndex(trace.EvDelivered); got != -1 {
		t.Errorf("eventIndex(%s) = %d, want -1", trace.EvDelivered, got)
	}
	for i, p := range Phases {
		if c := Cell(i + 1); c.String() != p {
			t.Errorf("Cell(%d) = %q, want %q", c, c.String(), p)
		}
	}
	if NoCell.String() != "" || CellCGI.String() != "cgi" {
		t.Errorf("NoCell %q, CellCGI %q", NoCell.String(), CellCGI.String())
	}
}
