// Package live runs a whole SWEB deployment as real processes-worth of
// goroutines on localhost: n httpd nodes with their own document roots and
// UDP loadd gossip, a round-robin resolver standing in for the DNS front
// end, a redirect-following client, and a burst-style load generator. This
// is the "cluster simulated via processes" substrate: every byte crosses a
// real TCP socket and every load sample a real UDP datagram.
package live

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"sweb/internal/core"
	"sweb/internal/dnsrr"
	"sweb/internal/httpd"
	"sweb/internal/httpmsg"
	"sweb/internal/retry"
	"sweb/internal/slo"
	"sweb/internal/storage"
	"sweb/internal/trace"
)

// Options configures a live cluster.
type Options struct {
	// Nodes is the cluster size.
	Nodes int
	// Store describes the documents; files are materialized on disk under
	// BaseDir, one docroot per owning node. Required.
	Store *storage.Store
	// BaseDir hosts the per-node docroots. Required (use t.TempDir() in
	// tests).
	BaseDir string
	// Policy selects the scheduler per node: "sweb" (default), "rr",
	// "fl", "cpu".
	Policy string
	// Params tunes the scheduler (zero: core.DefaultParams).
	Params     core.Params
	HaveParams bool
	// LoaddPeriod overrides the broadcast interval (default 500ms — the
	// live cluster runs short tests, so it gossips faster than the
	// paper's 2-3s while keeping the same structure).
	LoaddPeriod time.Duration
	// LoaddTimeout overrides the peer-silence threshold (default: the
	// httpd default of 8s; chaos tests shorten it).
	LoaddTimeout time.Duration
	// MaxConcurrent is the per-node accept capacity (default 256).
	MaxConcurrent int
	// FetchAttempts and FetchBackoff tune the internal-fetch retry budget
	// per node (zero: httpd defaults).
	FetchAttempts int
	FetchBackoff  time.Duration
	// RetryAfterHint is stamped on degraded 503s (zero: httpd default).
	RetryAfterHint time.Duration
	// FailureLimit is the consecutive data-path failure count before a
	// peer is scheduled around (zero: loadd default).
	FailureLimit int
	// CacheBytes is each node's hot-file cache capacity (zero: httpd's
	// DefaultCacheBytes).
	CacheBytes int64
	// CacheOff disables the hot-file cache on every node.
	CacheOff bool
	// KeepAliveOff makes every node close connections after one response,
	// the pre-persistent-connection behavior.
	KeepAliveOff bool
	// Faults, when non-nil, injects gossip loss and fetch latency.
	Faults *Faults
	// Trace, when non-nil, is shared by every node: each request's
	// lifecycle events land in one recorder, aggregable by the same
	// renderers the simulator uses.
	Trace *trace.Recorder
	// NodeTraces, when > 0, gives every node its own recorder capped at
	// that many events (overriding Trace) — the distributed configuration,
	// where each node captures only its own view and the streams are
	// stitched back together by scraping /sweb/trace into a Collector.
	NodeTraces int
	// FlightRing sizes every node's recent flight ring (zero: flight
	// default).
	FlightRing int
	// SnapshotDir, when set, enables diagnostic bundles: WriteSnapshot
	// writes cross-node bundle directories under it, and each node's
	// /sweb/snapshot writes its own.
	SnapshotDir string
	// SLO sets every node's /sweb/slo objectives (empty: slo defaults).
	SLO []slo.Objective
	// Replicas, when > 1, replicates every static document R ways at
	// startup (storage.Replicate's round-robin placement) and
	// materializes each copy in its node's docroot — the availability
	// baseline the chaos tests kill nodes under.
	Replicas int
	// Seed drives file content generation.
	Seed int64
}

// Cluster is a running live deployment.
type Cluster struct {
	Servers  []*httpd.Server
	Resolver *dnsrr.Resolver
	store    *storage.Store
	// epoch is the shared zero point of every node's trace clock.
	epoch time.Time
	// cfgs holds each node's config with its *bound* addresses, so a
	// killed node can be restarted in place; nil for Assemble clusters.
	cfgs  []httpd.Config
	peers []httpd.Peer
	// rb is the attached replica rebalancer, nil until StartRebalancer.
	rb *rebalancerState

	// snapshotDir is the bundle destination; snapMu serializes writes and
	// guards the written-bundle list.
	snapshotDir string
	snapMu      sync.Mutex
	bundles     []string
}

// Start materializes the docroots, binds and starts every node, and wires
// the peer tables.
func Start(o Options) (*Cluster, error) {
	if o.Nodes <= 0 {
		return nil, fmt.Errorf("live: need at least one node")
	}
	if o.Store == nil || o.BaseDir == "" {
		return nil, fmt.Errorf("live: Store and BaseDir are required")
	}
	if o.Store.Nodes() != o.Nodes {
		return nil, fmt.Errorf("live: store built for %d nodes, want %d", o.Store.Nodes(), o.Nodes)
	}
	if o.LoaddPeriod == 0 {
		o.LoaddPeriod = 500 * time.Millisecond
	}
	if o.Replicas > 1 {
		storage.Replicate(o.Store, o.Replicas)
	}
	if err := Materialize(o.Store, o.BaseDir, o.Seed); err != nil {
		return nil, err
	}
	params := o.Params
	if !o.HaveParams {
		params = core.DefaultParams()
	}
	policy, err := core.NewPolicy(o.Policy, params)
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}

	cl := &Cluster{store: o.Store, epoch: time.Now(), snapshotDir: o.SnapshotDir}
	for i := 0; i < o.Nodes; i++ {
		rec := o.Trace
		if o.NodeTraces > 0 {
			rec = trace.NewRecorder(o.NodeTraces)
		}
		cfg := httpd.Config{
			ID:             i,
			DocRoot:        nodeDocRoot(o.BaseDir, i),
			Store:          o.Store,
			Policy:         policy,
			Params:         params,
			HaveParams:     true,
			LoaddPeriod:    o.LoaddPeriod,
			LoaddTimeout:   o.LoaddTimeout,
			MaxConcurrent:  o.MaxConcurrent,
			FetchAttempts:  o.FetchAttempts,
			FetchBackoff:   o.FetchBackoff,
			RetryAfterHint: o.RetryAfterHint,
			FailureLimit:   o.FailureLimit,
			CacheBytes:     o.CacheBytes,
			CacheOff:       o.CacheOff,
			KeepAliveOff:   o.KeepAliveOff,
			DropBroadcast:  o.Faults.dropFn(int64(i)),
			DialDelay:      o.Faults.delayFn(),
			Trace:          rec,
			Epoch:          cl.epoch,
			FlightRing:     o.FlightRing,
			SnapshotDir:    o.SnapshotDir,
			SLO:            o.SLO,
		}
		srv, err := httpd.New(cfg)
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.Servers = append(cl.Servers, srv)
		// Keep the bound addresses so Restart can re-create the node in
		// place and peers keep reaching it.
		cfg.Addr = srv.Addr()
		cfg.UDPAddr = srv.UDPAddr()
		cl.cfgs = append(cl.cfgs, cfg)
	}
	peers := make([]httpd.Peer, 0, o.Nodes)
	ids := make([]int, 0, o.Nodes)
	for i, srv := range cl.Servers {
		peers = append(peers, httpd.Peer{ID: i, HTTPAddr: srv.Addr(), UDPAddr: srv.UDPAddr()})
		ids = append(ids, i)
	}
	cl.peers = peers
	for _, srv := range cl.Servers {
		srv.SetPeers(peers)
		srv.Start()
	}
	cl.Resolver, err = dnsrr.New(ids, 0)
	if err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

// Assemble wraps already-constructed servers (e.g. nodes sharing one access
// log) into a Cluster with a round-robin resolver. The servers must already
// have their peers set; Assemble starts none of them.
func Assemble(servers []*httpd.Server, store *storage.Store) (*Cluster, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("live: no servers to assemble")
	}
	ids := make([]int, len(servers))
	for i, srv := range servers {
		ids[i] = srv.ID()
	}
	resolver, err := dnsrr.New(ids, 0)
	if err != nil {
		return nil, err
	}
	return &Cluster{Servers: servers, Resolver: resolver, store: store, epoch: time.Now()}, nil
}

// Epoch returns the cluster's shared trace-clock zero (for Assemble
// clusters, the assembly time — the servers keep their own epochs).
func (c *Cluster) Epoch() time.Time { return c.epoch }

// Close stops every node.
func (c *Cluster) Close() {
	c.StopRebalancer()
	for _, srv := range c.Servers {
		if srv != nil {
			srv.Close()
		}
	}
}

// Kill crashes node i mid-run: its HTTP listener and loadd socket close
// immediately with no goodbye. The DNS rotation keeps resolving to it —
// the paper's premise is that round-robin DNS cannot react to failures —
// so the surviving nodes (and the clients' own failover) must cope.
func (c *Cluster) Kill(i int) error {
	if i < 0 || i >= len(c.Servers) {
		return fmt.Errorf("live: no node %d", i)
	}
	c.Servers[i].Close()
	return nil
}

// Restart brings a killed node back on its original HTTP and loadd
// addresses with a fresh server, re-wiring the peer tables. The node keeps
// its recorder: timestamps are relative to the shared cluster epoch, so
// the stream stays consistent across the outage. The chaos tests use it to
// watch staleness metrics recover.
func (c *Cluster) Restart(i int) error {
	if i < 0 || i >= len(c.Servers) {
		return fmt.Errorf("live: no node %d", i)
	}
	if c.cfgs == nil {
		return fmt.Errorf("live: cluster was assembled from external servers; restart is not supported")
	}
	srv, err := httpd.New(c.cfgs[i])
	if err != nil {
		return err
	}
	c.Servers[i] = srv
	srv.SetPeers(c.peers)
	srv.Start()
	return nil
}

// Addrs returns the HTTP addresses in node order.
func (c *Cluster) Addrs() []string {
	out := make([]string, len(c.Servers))
	for i, srv := range c.Servers {
		out[i] = srv.Addr()
	}
	return out
}

// nodeDocRoot is the directory holding node i's documents.
func nodeDocRoot(base string, i int) string {
	return filepath.Join(base, fmt.Sprintf("node%d", i))
}

// Materialize writes every document in the store to each replica's
// docroot with deterministic pseudo-random content (one generation per
// document, so every copy is byte-identical).
func Materialize(st *storage.Store, baseDir string, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for _, p := range st.Paths() {
		f, _ := st.Lookup(p)
		if f.CGI {
			continue // dynamic endpoints are registered, not stored
		}
		body := make([]byte, f.Size)
		rng.Read(body)
		for _, node := range f.ReplicaSet() {
			full := filepath.Join(nodeDocRoot(baseDir, node), filepath.FromSlash(strings.TrimPrefix(p, "/")))
			if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
				return fmt.Errorf("live: %v", err)
			}
			if err := os.WriteFile(full, body, 0o644); err != nil {
				return fmt.Errorf("live: %v", err)
			}
		}
	}
	return nil
}

// Result is the outcome of one client fetch.
type Result struct {
	Status     int
	Body       []byte
	Redirected bool
	ServedBy   string // final address that answered
	Elapsed    time.Duration
}

// Client fetches documents through the DNS rotation, following at most one
// redirect like a 1996 browser. When a node is unreachable — the rotation
// still resolves to crashed nodes — the client re-resolves and tries the
// next address, the way browsers walked a DNS answer's remaining A
// records, under a small capped-backoff budget.
//
// By default the client speaks HTTP/1.1 with keep-alive and parks one idle
// connection per node address, so a redirect's follow-up request to a node
// it has already visited rides the open socket instead of paying a fresh
// TCP handshake. SetKeepAlive(false) restores one-shot HTTP/1.0 fetches.
type Client struct {
	mu        sync.Mutex
	cluster   *Cluster
	timeout   time.Duration
	maxBytes  int64
	attempts  int
	backoff   time.Duration
	rec       *trace.Recorder
	keepAlive bool
	idle      map[string]*persistConn
	closed    bool
}

// persistConn is one parked keep-alive connection with its response parser.
type persistConn struct {
	c  net.Conn
	br *bufio.Reader
}

func (p *persistConn) Close() { _ = p.c.Close() }

// SetTrace makes the client originate traces: every Get mints a trace id,
// records the client-side events (issued, resolved, delivered/timed-out)
// on the cluster's epoch clock, and sends the id along as swebt so the
// serving nodes join the same span. The span then covers the full
// client-observed latency, redirect round-trip included.
func (cl *Client) SetTrace(rec *trace.Recorder) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.rec = rec
}

// NewClient builds a client for the cluster. The default failover budget
// is one attempt per node plus one.
func (c *Cluster) NewClient() *Client {
	return &Client{
		cluster: c, timeout: 30 * time.Second, maxBytes: 64 << 20,
		attempts: len(c.Servers) + 1, backoff: 50 * time.Millisecond,
		keepAlive: true, idle: make(map[string]*persistConn),
	}
}

// SetKeepAlive toggles connection reuse. Turning it off closes any parked
// connections and makes every fetch a one-shot HTTP/1.0 exchange.
func (cl *Client) SetKeepAlive(on bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.keepAlive = on
	if !on {
		for addr, pc := range cl.idle {
			pc.Close()
			delete(cl.idle, addr)
		}
	}
}

// Close releases every parked keep-alive connection. The client stays
// usable; subsequent fetches just dial fresh.
func (cl *Client) Close() {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.closed = true
	for addr, pc := range cl.idle {
		pc.Close()
		delete(cl.idle, addr)
	}
}

// takeConn pops the parked connection for addr, nil when none.
func (cl *Client) takeConn(addr string) *persistConn {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	pc := cl.idle[addr]
	delete(cl.idle, addr)
	return pc
}

// parkConn stores a reusable connection for addr, displacing (and closing)
// any connection already parked there.
func (cl *Client) parkConn(addr string, pc *persistConn) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed || !cl.keepAlive {
		pc.Close()
		return
	}
	if old := cl.idle[addr]; old != nil {
		old.Close()
	}
	cl.idle[addr] = pc
}

// SetRetry tunes the failover budget: total attempts across re-resolves
// and the base backoff between them (doubling, capped at 1s).
func (cl *Client) SetRetry(attempts int, backoff time.Duration) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.attempts = attempts
	cl.backoff = backoff
}

// Get fetches path, following redirects (up to 4 hops as browsers did) and
// failing over to the next resolved node when one is unreachable.
func (cl *Client) Get(path string) (*Result, error) {
	cl.mu.Lock()
	pol := retry.Policy{MaxAttempts: cl.attempts, BaseDelay: cl.backoff, MaxDelay: time.Second}
	rec := cl.rec
	cl.mu.Unlock()
	start := time.Now()
	tid := int64(-1)
	if rec.Enabled() {
		var tctx trace.TraceID
		tid, tctx = rec.Begin("")
		rec.Record(tid, cl.sinceEpoch(start), trace.EvIssued, -1, "path="+path)
		path = appendQueryParam(path, traceQueryParam+"="+string(tctx))
	}
	var res *Result
	resolvedNode, resolvedAt := -1, time.Time{}
	err := pol.Do(nil, func(int) error {
		node, err := cl.cluster.Resolver.Resolve("", float64(time.Now().UnixNano())/1e9)
		if err != nil {
			return err
		}
		resolvedNode, resolvedAt = node, time.Now()
		r, err := cl.getVia(cl.cluster.Servers[node].Addr(), path, start)
		if err != nil {
			return err
		}
		res = r
		return nil
	})
	if err != nil {
		rec.Record(tid, cl.sinceEpoch(time.Now()), trace.EvTimedOut, -1, err.Error())
		return nil, err
	}
	rec.Record(tid, cl.sinceEpoch(resolvedAt), trace.EvResolved, resolvedNode, "")
	rec.Record(tid, cl.sinceEpoch(time.Now()), trace.EvDelivered, -1,
		fmt.Sprintf("status=%d", res.Status))
	return res, nil
}

// GetVia fetches path entering the cluster at node's HTTP listener,
// bypassing the DNS rotation — benchmarks and chaos tests pin the entry
// node so cache placement and internal-fetch direction are deterministic.
// Redirects are still followed like Get's.
func (cl *Client) GetVia(node int, path string) (*Result, error) {
	if node < 0 || node >= len(cl.cluster.Servers) {
		return nil, fmt.Errorf("live: no node %d", node)
	}
	return cl.getVia(cl.cluster.Servers[node].Addr(), path, time.Now())
}

// traceQueryParam mirrors the httpd swebt parameter name; the client sends
// a bare trace id (no send timestamp — there is no hop to measure yet).
const traceQueryParam = "swebt"

// sinceEpoch converts a wall instant to the cluster's shared trace clock.
func (cl *Client) sinceEpoch(t time.Time) float64 {
	return t.Sub(cl.cluster.epoch).Seconds()
}

// appendQueryParam adds one key=value to a path-and-query string.
func appendQueryParam(pathAndQuery, kv string) string {
	if strings.Contains(pathAndQuery, "?") {
		return pathAndQuery + "&" + kv
	}
	return pathAndQuery + "?" + kv
}

// getVia performs one full fetch entering the cluster at addr. With
// keep-alive on, the redirect hop's second request reuses the pool — when
// the rotation has already visited the target node, no handshake is paid.
func (cl *Client) getVia(addr, path string, start time.Time) (*Result, error) {
	redirected := false
	for hop := 0; hop < 4; hop++ {
		status, hdr, body, err := cl.roundTrip(addr, path)
		if err != nil {
			return nil, err
		}
		if status == httpmsg.StatusMovedTemporarily {
			loc := hdr.Get("Location")
			naddr, npath, ok := splitLocation(loc)
			if !ok {
				return nil, fmt.Errorf("live: bad Location %q", loc)
			}
			addr, path = naddr, npath
			redirected = true
			continue
		}
		return &Result{
			Status: status, Body: body, Redirected: redirected,
			ServedBy: addr, Elapsed: time.Since(start),
		}, nil
	}
	return nil, fmt.Errorf("live: too many redirects for %s", path)
}

// roundTrip performs one GET against addr. With keep-alive on it tries the
// parked connection first (retrying once on a fresh dial if the server
// idle-timed it out), and parks the connection back when the response
// framing leaves it clean. With keep-alive off it is a one-shot HTTP/1.0
// exchange.
func (cl *Client) roundTrip(addr, pathAndQuery string) (int, httpmsg.Header, []byte, error) {
	cl.mu.Lock()
	ka := cl.keepAlive && !cl.closed
	cl.mu.Unlock()
	if !ka {
		return fetchOnce(addr, pathAndQuery, cl.timeout, cl.maxBytes)
	}
	req := cl.buildGet(pathAndQuery, true)
	if pc := cl.takeConn(addr); pc != nil {
		resp, err := cl.exchange(pc, req)
		if err == nil {
			return cl.finish(addr, pc, resp)
		}
		pc.Close() // idle connection went stale under us; dial fresh
	}
	conn, err := net.DialTimeout("tcp", addr, cl.timeout)
	if err != nil {
		return 0, nil, nil, err
	}
	pc := &persistConn{c: conn, br: bufio.NewReader(conn)}
	resp, err := cl.exchange(pc, req)
	if err != nil {
		pc.Close()
		return 0, nil, nil, err
	}
	return cl.finish(addr, pc, resp)
}

// buildGet parses "/path?query" into a request; keepAlive selects the
// HTTP/1.1 persistent form. The path is decoded first: redirect Locations
// arrive percent-escaped, and Request.Write re-escapes on the wire.
func (cl *Client) buildGet(pathAndQuery string, keepAlive bool) *httpmsg.Request {
	p, q := pathAndQuery, ""
	if i := strings.IndexByte(pathAndQuery, '?'); i >= 0 {
		p, q = pathAndQuery[:i], pathAndQuery[i+1:]
	}
	if dp, err := httpmsg.DecodePath(p); err == nil {
		p = dp
	}
	req := &httpmsg.Request{Method: "GET", Path: p, Query: q, Header: httpmsg.Header{}}
	if keepAlive {
		req.Proto = "HTTP/1.1"
		req.Header.Set("Connection", "keep-alive")
	}
	return req
}

// exchange writes one request and reads the full response off pc.
func (cl *Client) exchange(pc *persistConn, req *httpmsg.Request) (*httpmsg.Response, error) {
	_ = pc.c.SetDeadline(time.Now().Add(cl.timeout))
	if err := req.Write(pc.c); err != nil {
		return nil, err
	}
	return httpmsg.ReadResponse(pc.br, cl.maxBytes)
}

// finish parks pc for reuse when the response says the server is keeping
// the connection open and the framing consumed the body exactly.
func (cl *Client) finish(addr string, pc *persistConn, resp *httpmsg.Response) (int, httpmsg.Header, []byte, error) {
	if resp.KeepAlive() && resp.SelfDelimited() {
		cl.parkConn(addr, pc)
	} else {
		pc.Close()
	}
	return resp.StatusCode, resp.Header, resp.Body, nil
}

// fetchOnce performs a single HTTP/1.0 GET.
func fetchOnce(addr, pathAndQuery string, timeout time.Duration, maxBytes int64) (int, httpmsg.Header, []byte, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return 0, nil, nil, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(timeout))
	p, q := pathAndQuery, ""
	if i := strings.IndexByte(pathAndQuery, '?'); i >= 0 {
		p, q = pathAndQuery[:i], pathAndQuery[i+1:]
	}
	if dp, err := httpmsg.DecodePath(p); err == nil {
		p = dp
	}
	req := &httpmsg.Request{Method: "GET", Path: p, Query: q, Header: httpmsg.Header{}}
	if err := req.Write(conn); err != nil {
		return 0, nil, nil, err
	}
	resp, err := httpmsg.ReadResponse(bufio.NewReader(conn), maxBytes)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, resp.Body, nil
}

// splitLocation turns "http://host:port/path?q" into (host:port, /path?q).
func splitLocation(loc string) (addr, path string, ok bool) {
	rest, ok := strings.CutPrefix(loc, "http://")
	if !ok {
		return "", "", false
	}
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		return rest, "/", true
	}
	return rest[:slash], rest[slash:], true
}

// Post sends a POST with body to path (the footnote-1 extension).
func (cl *Client) Post(path string, body []byte) (*Result, error) {
	start := time.Now()
	node, err := cl.cluster.Resolver.Resolve("", float64(time.Now().UnixNano())/1e9)
	if err != nil {
		return nil, err
	}
	addr := cl.cluster.Servers[node].Addr()
	conn, err := net.DialTimeout("tcp", addr, cl.timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(cl.timeout))
	req := &httpmsg.Request{Method: "POST", Path: path, Header: httpmsg.Header{}, Body: body}
	if err := req.Write(conn); err != nil {
		return nil, err
	}
	resp, err := httpmsg.ReadResponse(bufio.NewReader(conn), cl.maxBytes)
	if err != nil {
		return nil, err
	}
	return &Result{Status: resp.StatusCode, Body: resp.Body, ServedBy: addr, Elapsed: time.Since(start)}, nil
}
