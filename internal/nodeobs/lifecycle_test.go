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
		if kind, cell := FetchStep(c.fetch); kind != c.kind || cell != c.cell {
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
