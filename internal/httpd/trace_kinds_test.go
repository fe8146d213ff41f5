package httpd

import (
	"fmt"
	"strings"
	"testing"

	"sweb/internal/trace"
)

// TestTraceKindsGolden drives the golden cluster through every kind of
// response TestResponseKindsGolden covers, each node recording into its
// own trace recorder, and pins per kind each node's new events in order:
// kind, node and detail, with the trace id masked to the order in which
// the run first saw it, so the joins across hops stay pinned.
func TestTraceKindsGolden(t *testing.T) {
	recs := []*trace.Recorder{trace.NewRecorder(0), trace.NewRecorder(0)}
	srvs, _ := goldenCluster(t, func(cfg *Config) { cfg.Trace = recs[cfg.ID] })
	ids := map[trace.TraceID]string{}
	taken := make([]int, len(recs))
	var out strings.Builder
	for _, k := range goldenKinds() {
		if _, err := driveKind(srvs, k); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "== %s: node%d %s\n", k.name, k.node, strings.SplitN(k.raw, "\r\n", 2)[0])
		for i, rec := range recs {
			evs := rec.Events()
			for _, e := range evs[taken[i]:] {
				id, ok := ids[e.Trace]
				if !ok {
					id = fmt.Sprintf("T%d", len(ids)+1)
					ids[e.Trace] = id
				}
				fmt.Fprintf(&out, "node%d: %s %s %d %q\n", i, id, e.Kind, e.Node, e.Detail)
			}
			taken[i] = len(evs)
		}
	}
	checkGoldenText(t, "trace_kinds", out.String())
}
