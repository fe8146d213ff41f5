// Command swebd runs one live SWEB node: an HTTP/1.1 keep-alive server
// with the multi-faceted scheduler, gossiping load over UDP to its peers.
//
// Usage:
//
//	swebd -id 0 -addr 127.0.0.1:8080 -udp 127.0.0.1:9080 \
//	      -peers "0=127.0.0.1:8080/127.0.0.1:9080,1=127.0.0.1:8081/127.0.0.1:9081" \
//	      -docroot /srv/sweb/node0 -manifest cluster.manifest -policy sweb
//
// The manifest (see internal/storage.ReadManifest) maps every document to
// its owning node; each node serves its own docroot and fetches foreign
// documents from their owners.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the side-port mux
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sweb/internal/accesslog"
	"sweb/internal/core"
	"sweb/internal/httpd"
	"sweb/internal/live"
	"sweb/internal/oracle"
	"sweb/internal/rebalance"
	"sweb/internal/slo"
	"sweb/internal/storage"
	"sweb/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "swebd:", err)
		os.Exit(1)
	}
}

func run() error {
	id := flag.Int("id", 0, "this node's id")
	addr := flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
	udp := flag.String("udp", "127.0.0.1:9080", "loadd UDP listen address")
	peersFlag := flag.String("peers", "", "comma list of id=http/udp peer addresses (include self)")
	docroot := flag.String("docroot", "", "directory with this node's documents")
	manifestPath := flag.String("manifest", "", "cluster document manifest file")
	policy := flag.String("policy", "sweb", "scheduling policy: sweb, rr, fl, cpu")
	maxConc := flag.Int("max-concurrent", 256, "accept capacity before shedding connections")
	oraclePath := flag.String("oracle", "", "oracle configuration file (request characterization table)")
	logPath := flag.String("access-log", "", "append NCSA Common Log Format lines to this file")
	fetchAttempts := flag.Int("fetch-attempts", 3, "internal-fetch attempt budget against a document's owner (1 disables retry)")
	fetchBackoff := flag.Duration("fetch-backoff", 100*time.Millisecond, "base backoff between internal-fetch attempts (doubles, jittered)")
	fetchTimeout := flag.Duration("fetch-timeout", 5*time.Second, "per-attempt dial timeout for internal fetches")
	retryAfter := flag.Duration("retry-after", 2*time.Second, "Retry-After hint stamped on degraded 503 responses")
	failLimit := flag.Int("fail-limit", 3, "consecutive data-path failures before a peer is scheduled around")
	loaddTimeout := flag.Duration("loadd-timeout", 8*time.Second, "peer broadcast silence before it is considered unavailable")
	cacheBytes := flag.Int64("cache-bytes", httpd.DefaultCacheBytes, "hot-file cache capacity in bytes")
	cacheOff := flag.Bool("cache-off", false, "disable the hot-file cache (every request pays the disk or the owner fetch)")
	keepAlive := flag.Bool("keepalive", true, "serve multiple requests per connection (HTTP/1.1 persistent connections)")
	keepAliveMax := flag.Int("keepalive-max", 0, "requests served per connection before it is closed (0: default 100, negative: unlimited)")
	idleTimeout := flag.Duration("idle-timeout", 0, "how long a keep-alive connection may sit idle between requests (0: default 15s)")
	metricsOn := flag.Bool("metrics", true, "serve /sweb/status and /sweb/metrics on the HTTP listener")
	flightRing := flag.Int("flight-ring", 0, "flight recorder ring capacity in records (0: default 512)")
	flightNotable := flag.Int("flight-notable", 0, "notable (slow/errored) flight ring capacity (0: default 128)")
	slowThreshold := flag.Duration("slow-threshold", 0, "requests slower than this are retained as notable (0: default 1s, negative: off)")
	heatK := flag.Int("heat-k", 0, "document-heat sketch width: hottest paths tracked per node (0: default 64)")
	snapshotDir := flag.String("snapshot-dir", "", "write /sweb/snapshot diagnostic bundles under this directory (empty disables)")
	sloFlag := flag.String("slo", "", `service-level objectives reported on /sweb/slo, e.g. "avail=99.9,p99=250ms" (empty: defaults)`)
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this side address (empty disables)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event (Perfetto) JSON of this node's spans here on shutdown (enables tracing)")
	traceLimit := flag.Int("trace-limit", 0, "trace event capture cap (0: default 1M; only with -trace-out)")
	replicas := flag.Int("replicas", 1, "replicate every static document R ways (deterministic placement; every node must pass the same value and hold the documents it replicates)")
	rebalPeriod := flag.Duration("rebalance", 0, "heat-driven replica rebalancing period; the lowest-id node in -peers runs the controller (0 disables)")
	grace := flag.Duration("grace", 10*time.Second, "in-flight drain budget on SIGINT/SIGTERM before hard close")
	metricsOut := flag.String("metrics-out", "", "write the final /sweb/metrics snapshot to this file on shutdown")
	flag.Parse()

	if *docroot == "" || *manifestPath == "" {
		return fmt.Errorf("-docroot and -manifest are required")
	}
	mf, err := os.Open(*manifestPath)
	if err != nil {
		return err
	}
	store, err := storage.ReadManifest(mf)
	mf.Close()
	if err != nil {
		return err
	}
	if *replicas > 1 {
		// Every node applies the same deterministic placement, so the
		// cluster agrees on the replica sets without coordination. The
		// bytes are the operator's job: a node that replicates a document
		// must hold it in its docroot (rsync from the owner, or run
		// -rebalance and let the controller materialize copies on demand).
		storage.Replicate(store, *replicas)
	}
	peers, err := parsePeers(*peersFlag)
	if err != nil {
		return err
	}

	params := core.DefaultParams()
	pol, err := core.NewPolicy(*policy, params)
	if err != nil {
		return err
	}

	cfg := httpd.Config{
		ID:             *id,
		Addr:           *addr,
		UDPAddr:        *udp,
		DocRoot:        *docroot,
		Store:          store,
		Policy:         pol,
		Params:         params,
		HaveParams:     true,
		MaxConcurrent:  *maxConc,
		FetchAttempts:  *fetchAttempts,
		FetchBackoff:   *fetchBackoff,
		FetchTimeout:   *fetchTimeout,
		RetryAfterHint: *retryAfter,
		FailureLimit:   *failLimit,
		LoaddTimeout:   *loaddTimeout,
		CacheBytes:     *cacheBytes,
		CacheOff:       *cacheOff,
		KeepAliveOff:   !*keepAlive,
		KeepAliveMax:   *keepAliveMax,
		IdleTimeout:    *idleTimeout,
		FlightRing:     *flightRing,
		FlightNotable:  *flightNotable,
		SlowThreshold:  *slowThreshold,
		HeatK:          *heatK,
		SnapshotDir:    *snapshotDir,

		DisableIntrospection: !*metricsOn,
	}
	if *sloFlag != "" {
		cfg.SLO, err = slo.ParseObjectives(*sloFlag)
		if err != nil {
			return err
		}
	}
	if *oraclePath != "" {
		of, err := os.Open(*oraclePath)
		if err != nil {
			return err
		}
		cfg.Oracle, err = oracle.ParseConfig(of)
		of.Close()
		if err != nil {
			return err
		}
	}
	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.NewRecorder(*traceLimit)
		cfg.Trace = rec
	}
	var logFile *os.File
	if *logPath != "" {
		logFile, err = os.OpenFile(*logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer logFile.Close()
		cfg.AccessLog = accesslog.NewLogger(logFile)
	}
	srv, err := httpd.New(cfg)
	if err != nil {
		return err
	}
	srv.SetPeers(peers)
	srv.Start()
	if *replicas > 1 {
		warnMissingReplicas(store, *id, *docroot)
	}
	rebalStop := make(chan struct{})
	if *rebalPeriod > 0 && live.IsLeader(*id, peers) {
		fmt.Printf("swebd: node %d is the rebalance leader (period %s)\n", *id, *rebalPeriod)
		go runRebalancer(store, peers, *rebalPeriod, rebalStop)
	}
	if *pprofAddr != "" {
		// The SWEB listener is a from-scratch HTTP/1.0 server; pprof needs
		// the stdlib mux, so it gets its own side port. Opt-in only: the
		// profiler should never share the scheduling path's fate.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "swebd: pprof:", err)
			}
		}()
		fmt.Printf("swebd: pprof on http://%s/debug/pprof\n", *pprofAddr)
	}
	fmt.Printf("swebd: node %d serving on http://%s (loadd %s), %d documents, policy %s\n",
		*id, srv.Addr(), srv.UDPAddr(), store.Len(), *policy)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("swebd: shutting down, draining in-flight requests (grace %s; signal again to force)\n", *grace)
	close(rebalStop)
	// A second signal during the drain skips the grace period: Close tears
	// the node down immediately, cutting in-flight connections.
	done := make(chan bool, 1)
	go func() { done <- srv.Shutdown(*grace) }()
	var drained bool
	select {
	case drained = <-done:
	case <-sig:
		srv.Close()
		drained = <-done
	}
	if !drained {
		fmt.Fprintln(os.Stderr, "swebd: grace period expired with requests still in flight")
	}
	// Flush everything the abrupt path used to drop: the access log, the
	// final metrics snapshot, then (below) the trace.
	if cfg.AccessLog != nil {
		_ = cfg.AccessLog.Flush()
	}
	if *metricsOut != "" {
		if err := writeMetricsSnapshot(*metricsOut, srv); err != nil {
			return err
		}
		fmt.Printf("swebd: wrote final metrics snapshot to %s\n", *metricsOut)
	}
	st := srv.Stats()
	fmt.Printf("swebd: served=%d redirected=%d refused=%d internal=%d bytes=%d\n",
		st.Served, st.Redirected, st.Refused, st.InternalFetch, st.BytesOut)
	if rec != nil {
		if err := writeChromeTrace(*traceOut, srv, rec); err != nil {
			return err
		}
		fmt.Printf("swebd: wrote %d trace events to %s (dropped %d); load it at ui.perfetto.dev\n",
			rec.Len(), *traceOut, rec.Dropped())
	}
	return nil
}

// writeMetricsSnapshot renders the node's registry one last time — the
// counters a scraper would have lost between its final poll and the exit.
func writeMetricsSnapshot(path string, srv *httpd.Server) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := srv.Registry().WriteText(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeChromeTrace exports this node's recorded spans. A single node sees
// only its own half of redirected requests; merge several nodes'
// /sweb/trace dumps with trace.Collector for the stitched picture.
func writeChromeTrace(path string, srv *httpd.Server, rec *trace.Recorder) error {
	col := trace.NewCollector()
	col.Add(float64(srv.Epoch().UnixNano())/1e9, rec.Events())
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.ExportChrome(f, col.Spans())
}

// warnMissingReplicas flags replicated documents this node is expected to
// serve but does not hold on disk — a routing map that promises bytes the
// docroot lacks turns into 404s under load, so say so at startup.
func warnMissingReplicas(store *storage.Store, id int, docroot string) {
	missing := 0
	for _, p := range store.ReplicatedOn(id) {
		f, _ := store.Lookup(p)
		if f.CGI || f.Owner == id {
			continue
		}
		full := docroot + "/" + strings.TrimPrefix(p, "/")
		if _, err := os.Stat(full); err != nil {
			missing++
		}
	}
	if missing > 0 {
		fmt.Fprintf(os.Stderr,
			"swebd: warning: %d replicated document(s) missing from %s; copy them from their owners or run -rebalance\n",
			missing, docroot)
	}
}

// runRebalancer is the leader's control loop: one live.RebalanceRound
// per period until stop closes.
func runRebalancer(store *storage.Store, peers []httpd.Peer, period time.Duration, stop chan struct{}) {
	ctrl := rebalance.New(rebalance.Defaults())
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		_, errs := live.RebalanceRound(ctrl, store, peers)
		for _, err := range errs {
			fmt.Fprintln(os.Stderr, "swebd:", err)
		}
	}
}

// parsePeers parses "0=host:port/host:port,1=...".
func parsePeers(s string) ([]httpd.Peer, error) {
	if s == "" {
		return nil, nil
	}
	var peers []httpd.Peer
	for _, part := range strings.Split(s, ",") {
		eq := strings.IndexByte(part, '=')
		slash := strings.IndexByte(part, '/')
		if eq <= 0 || slash <= eq {
			return nil, fmt.Errorf("bad peer %q (want id=http/udp)", part)
		}
		id, err := strconv.Atoi(part[:eq])
		if err != nil {
			return nil, fmt.Errorf("bad peer id in %q", part)
		}
		peers = append(peers, httpd.Peer{
			ID:       id,
			HTTPAddr: part[eq+1 : slash],
			UDPAddr:  part[slash+1:],
		})
	}
	return peers, nil
}
