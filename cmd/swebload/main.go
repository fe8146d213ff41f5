// Command swebload is the burst load generator used against live SWEB
// nodes: at each second it launches a constant number of requests
// (the paper's test methodology) round-robin across the given servers,
// follows SWEB redirections, and reports response-time (p50/p95/p99),
// time-to-first-byte, and failure statistics.
//
// Usage:
//
//	swebload -servers 127.0.0.1:8080,127.0.0.1:8081 \
//	         -paths /docs/u000000.dat,/docs/u000001.dat -rps 16 -seconds 30
//
// With -slo "avail=99.9,p99=250ms" the run doubles as a release gate: the
// client-observed outcomes are scored against the objectives, the budget
// report is printed, and a breach exits nonzero (CI-friendly).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	"sweb/internal/httpmsg"
	"sweb/internal/live"
	"sweb/internal/slo"
	"sweb/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it returns the exit status, 2 for bad usage
// and 1 for a breached -slo gate.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("swebload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	servers := fs.String("servers", "", "comma list of host:port servers (the DNS rotation)")
	pathsFlag := fs.String("paths", "/", "comma list of request paths, drawn uniformly")
	rps := fs.Int("rps", 8, "requests launched per second")
	seconds := fs.Int("seconds", 30, "test duration")
	timeout := fs.Duration("timeout", 60*time.Second, "per-request client timeout")
	seed := fs.Int64("seed", 1, "random seed")
	keepAlive := fs.Bool("keepalive", true, "reuse connections across requests (HTTP/1.1 persistent connections)")
	sloSpec := fs.String("slo", "", `gate the run on client-observed objectives, e.g. "avail=99.9,p99=250ms"; breach exits nonzero`)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var objs []slo.Objective
	if *sloSpec != "" {
		var err error
		if objs, err = slo.ParseObjectives(*sloSpec); err != nil {
			fmt.Fprintln(stderr, "swebload:", err)
			return 2
		}
	}

	hosts := splitNonEmpty(*servers)
	paths := splitNonEmpty(*pathsFlag)
	if len(hosts) == 0 {
		fmt.Fprintln(stderr, "swebload: -servers is required")
		return 2
	}
	rng := rand.New(rand.NewSource(*seed))
	total := *rps * *seconds
	picks := make([]string, total)
	for i := range picks {
		picks[i] = paths[rng.Intn(len(paths))]
	}

	client := live.NewClient(hosts)
	client.SetTimeout(*timeout)
	client.SetKeepAlive(*keepAlive)
	defer client.Close()

	start := time.Now()
	// One attempt per request, entering at the i-th host of the DNS
	// round-robin: GetVia does not fail over.
	results := live.Burst(*rps, *seconds, func(i int) (*live.Result, error) {
		return client.GetVia(i%len(hosts), picks[i])
	})
	wall := time.Since(start)
	ok := func(r *live.Result) bool { return r != nil && r.Status == httpmsg.StatusOK }

	var done, failed, redirected int
	var latency, ttfb stats.Summary
	for _, r := range results {
		if !ok(r) {
			failed++
			continue
		}
		done++
		if r.Redirected {
			redirected++
		}
		latency.Add(r.Elapsed.Seconds())
		ttfb.Add(r.TTFB.Seconds())
	}
	fmt.Fprintf(stdout, "offered %d  completed %d  failed %d (%.1f%%)  redirected %d  wall %.1fs\n",
		total, done, failed, 100*float64(failed)/float64(total), redirected, wall.Seconds())
	for _, line := range []struct {
		name string
		s    *stats.Summary
	}{{"response", &latency}, {"ttfb", &ttfb}} {
		if line.s.N() == 0 {
			continue
		}
		fmt.Fprintf(stdout, "%s: mean %s  p50 %s  p95 %s  p99 %s  max %s\n",
			line.name,
			stats.FormatSeconds(line.s.Mean()),
			stats.FormatSeconds(line.s.Quantile(0.50)),
			stats.FormatSeconds(line.s.Quantile(0.95)),
			stats.FormatSeconds(line.s.Quantile(0.99)),
			stats.FormatSeconds(line.s.Max()))
	}

	if len(objs) > 0 {
		// The client-side gate: the same budget arithmetic the server's
		// /sweb/slo runs, but over what the client actually observed —
		// failures are errors, and a latency objective compares each
		// completed request's exact response time against the threshold
		// (no histogram-bucket rounding out here).
		rep := slo.Report{
			AtSeconds:     time.Since(start).Seconds(),
			WindowSeconds: float64(*seconds),
			Scope:         "client",
		}
		for _, o := range objs {
			var c slo.Counts
			for _, r := range results {
				c.Total++
				if ok(r) && (!o.IsLatency() || r.Elapsed.Seconds() <= o.Threshold) {
					c.Good++
				}
			}
			rep.Objectives = append(rep.Objectives, slo.NewStatus(o, c, rep.WindowSeconds))
		}
		fmt.Fprint(stdout, slo.Render(rep))
		if rep.Breached() {
			fmt.Fprintln(stderr, "swebload: SLO breached")
			return 1
		}
	}
	return 0
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
