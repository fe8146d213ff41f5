// Trace replay: the full production-trace loop. A live SWEB cluster serves
// real TCP traffic while writing NCSA Common Log Format access logs; the
// captured trace is then replayed through the simulated Meiko under every
// scheduling policy — what operators of a real deployment would do to ask
// "what would SWEB have bought us?".
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"sweb"
	"sweb/internal/httpd"
	"sweb/internal/live"
)

func main() {
	dir, err := os.MkdirTemp("", "sweb-tracereplay")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// --- Phase 1: a live 3-node cluster with a shared access log. ---
	const nodes = 3
	st := sweb.NewStore(nodes)
	paths := sweb.UniformSet(st, 12, 32<<10)
	var logBuf bytes.Buffer
	logger := sweb.NewAccessLogger(&logBuf)
	// One shared recorder across the nodes, on the cluster's one epoch:
	// every request's lifecycle — 302 hops included — lands in a single
	// stream, exported as a Perfetto trace after the run.
	rec := sweb.NewTraceRecorder(0)
	cl, err := live.Start(live.Options{
		Nodes: nodes, Store: st, BaseDir: dir, Seed: 1,
		// One shared CLF log, as a site with a log host would run it.
		Node: httpd.Config{AccessLog: logger, Trace: rec},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	fmt.Println("Phase 1: live cluster serving a short burst over real sockets...")
	results := cl.Generate(25, 2, func(i int, rng *rand.Rand) string {
		return paths[rng.Intn(len(paths))]
	}, 42)
	completed, sum := 0, time.Duration(0)
	for _, r := range results {
		if r != nil && r.Status == 200 {
			completed++
			sum += r.Elapsed
		}
	}
	fmt.Printf("  offered %d, completed %d, mean %v\n", len(results), completed, sum/time.Duration(max(completed, 1)))
	if err := logger.Flush(); err != nil {
		log.Fatal(err)
	}

	// Export the live run as a Chrome trace: the shared recorder is one
	// stream on one clock, so the collector needs no epoch alignment.
	col := sweb.NewTraceCollector()
	col.Add(0, rec.Events())
	spans := col.Spans()
	const traceFile = "tracereplay.perfetto.json"
	tf, err := os.Create(traceFile)
	if err != nil {
		log.Fatal(err)
	}
	if err := sweb.ExportChromeTrace(tf, spans); err != nil {
		log.Fatal(err)
	}
	tf.Close()
	fmt.Printf("  exported %d spans (%d events) to %s — open it at ui.perfetto.dev\n",
		len(spans), rec.Len(), traceFile)

	// --- Phase 2: parse the captured Common Log Format trace. ---
	entries, err := sweb.ParseAccessLog(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPhase 2: captured %d CLF entries; first line:\n  %s\n", len(entries), entries[0])

	// --- Phase 3: replay the trace through the simulated Meiko. ---
	arrivals, err := sweb.FromAccessLog(entries)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPhase 3: replaying %d requests through the simulator per policy:\n", len(arrivals))
	fmt.Printf("  %-14s %10s %10s %10s\n", "policy", "mean", "p95", "redirects")
	for _, policy := range []string{sweb.PolicyRoundRobin, sweb.PolicyFileLocality, sweb.PolicySWEB} {
		cfg := sweb.MeikoSim(nodes, st)
		cfg.Policy = policy
		cfg.Seed = 7
		sim, err := sweb.NewSimCluster(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res := sim.RunSchedule(arrivals)
		fmt.Printf("  %-14s %9.3fs %9.3fs %10d\n",
			sim.PolicyName(), res.MeanResponse(), res.Response.Quantile(0.95), res.Redirects)
	}
	fmt.Println()
	fmt.Println("Same trace, three placements: the simulator answers the operator's")
	fmt.Println("question without touching the production cluster.")
}
