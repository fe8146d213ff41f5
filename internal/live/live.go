// Package live runs a whole SWEB deployment as real processes-worth of
// goroutines on localhost: n httpd nodes with their own document roots and
// UDP loadd gossip, a redirect-following client whose address rotation
// stands in for the round-robin DNS front end, and a burst-style load
// generator. This is the "cluster simulated via processes" substrate:
// every byte crosses a real TCP socket and every load sample a real UDP
// datagram.
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
	"sync/atomic"
	"time"

	"sweb/internal/core"
	"sweb/internal/httpd"
	"sweb/internal/httpmsg"
	"sweb/internal/retry"
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
	// "fl", "cpu", built from Node.Params (core.DefaultParams unless
	// Node.HaveParams).
	Policy string
	// Node is every node's configuration. Start fills in what it owns:
	// ID, DocRoot, Store, Policy, Epoch, the bound addresses and the fault
	// hooks. A zero LoaddPeriod gossips every 500ms — the live cluster
	// runs short tests, so it broadcasts faster than the paper's 2-3s
	// while keeping the same structure. A Node.Trace recorder is shared by
	// every node, and Node.SnapshotDir is also where WriteSnapshot puts
	// its cross-node bundles.
	Node httpd.Config
	// Faults, when non-nil, injects gossip loss and fetch latency.
	Faults *Faults
	// NodeTraces, when > 0, gives every node its own recorder capped at
	// that many events (overriding Node.Trace) — the distributed
	// configuration, where each node captures only its own view and the
	// streams are stitched back together by scraping /sweb/trace into a
	// Collector.
	NodeTraces int
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
	Servers []*httpd.Server
	store   *storage.Store
	// epoch is the shared zero point of every node's trace clock.
	epoch time.Time
	// cfgs holds each node's config with its *bound* addresses, so a
	// killed node can be restarted in place.
	cfgs  []httpd.Config
	peers []httpd.Peer

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
	node := o.Node
	if node.LoaddPeriod == 0 {
		node.LoaddPeriod = 500 * time.Millisecond
	}
	if !node.HaveParams {
		node.Params, node.HaveParams = core.DefaultParams(), true
	}
	if o.Replicas > 1 {
		storage.Replicate(o.Store, o.Replicas)
	}
	if err := Materialize(o.Store, o.BaseDir, o.Seed); err != nil {
		return nil, err
	}
	policy, err := core.NewPolicy(o.Policy, node.Params)
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}

	cl := &Cluster{store: o.Store, epoch: time.Now(), snapshotDir: node.SnapshotDir}
	for i := 0; i < o.Nodes; i++ {
		cfg := node
		cfg.ID, cfg.DocRoot, cfg.Store, cfg.Policy, cfg.Epoch = i, nodeDocRoot(o.BaseDir, i), o.Store, policy, cl.epoch
		cfg.Addr, cfg.UDPAddr = "127.0.0.1:0", "127.0.0.1:0"
		cfg.DropBroadcast, cfg.DialDelay = o.Faults.dropFn(int64(i)), o.Faults.delayFn()
		if o.NodeTraces > 0 {
			cfg.Trace = trace.NewRecorder(o.NodeTraces)
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
	for i, srv := range cl.Servers {
		cl.peers = append(cl.peers, httpd.Peer{ID: i, HTTPAddr: srv.Addr(), UDPAddr: srv.UDPAddr()})
	}
	for _, srv := range cl.Servers {
		srv.SetPeers(cl.peers)
		srv.Start()
	}
	return cl, nil
}

// Epoch returns the cluster's shared trace-clock zero.
func (c *Cluster) Epoch() time.Time { return c.epoch }

// Close stops every node.
func (c *Cluster) Close() {
	for _, srv := range c.Servers {
		if srv != nil {
			srv.Close()
		}
	}
}

// Kill crashes node i mid-run: its HTTP listener and loadd socket close
// immediately with no goodbye. The clients' rotation keeps resolving to
// it — the paper's premise is that round-robin DNS cannot react to
// failures — so the surviving nodes (and the clients' own failover) must
// cope.
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
	// TTFB is when the final hop's first response byte arrived, measured
	// from the start of the fetch: redirect round trips are included,
	// since that is the wait the user saw.
	TTFB    time.Duration
	Elapsed time.Duration
}

// maxBody caps a response body the client reads.
const maxBody = 128 << 20

// maxIdlePerAddr caps the keep-alive connections parked per address.
const maxIdlePerAddr = 64

// Client fetches documents from a list of node addresses, following up to
// four redirects like a 1996 browser. Get rotates over the addresses the
// way round-robin DNS rotates its answer; when a node is unreachable —
// the rotation still resolves to crashed nodes — it moves on to the next
// address, the way browsers walked a DNS answer's remaining A records,
// under a small capped-backoff budget.
//
// By default the client speaks HTTP/1.1 with keep-alive and parks up to 64
// idle connections per address, so a follow-up request, a redirect's
// included, rides an open socket instead of paying a fresh TCP handshake.
// SetKeepAlive(false) makes every exchange a one-shot HTTP/1.0 one.
type Client struct {
	addrs []string
	next  atomic.Uint64 // the rotation's cursor into addrs
	epoch time.Time     // zero of the trace clock

	mu        sync.Mutex
	timeout   time.Duration
	attempts  int
	backoff   time.Duration
	rec       *trace.Recorder
	keepAlive bool
	idle      map[string][]*persistConn
	closed    bool
}

// persistConn is one parked keep-alive connection with its response parser.
type persistConn struct {
	c  net.Conn
	br *bufio.Reader
}

func (p *persistConn) Close() { _ = p.c.Close() }

// NewClient builds a client over the given node addresses. The failover
// budget is one attempt per address plus one.
func NewClient(addrs []string) *Client {
	return &Client{
		addrs: addrs, epoch: time.Now(), timeout: 30 * time.Second,
		attempts: len(addrs) + 1, backoff: 50 * time.Millisecond,
		keepAlive: true, idle: make(map[string][]*persistConn),
	}
}

// NewClient builds a client over the cluster's nodes, tracing on the
// cluster's epoch clock.
func (c *Cluster) NewClient() *Client {
	cl := NewClient(c.Addrs())
	cl.epoch = c.epoch
	return cl
}

// SetTrace makes the client originate traces: every Get mints a trace id,
// records the client-side events (issued, resolved, delivered/timed-out)
// on the client's epoch clock, and sends the id along as swebt so the
// serving nodes join the same span. The span then covers the full
// client-observed latency, redirect round-trip included.
func (cl *Client) SetTrace(rec *trace.Recorder) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.rec = rec
}

// SetKeepAlive toggles connection reuse. Turning it off closes any parked
// connections and makes every fetch a one-shot HTTP/1.0 exchange.
func (cl *Client) SetKeepAlive(on bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.keepAlive = on
	if !on {
		cl.closeIdleLocked()
	}
}

// SetTimeout bounds each exchange: the dial, and the request's write and
// response read on one connection.
func (cl *Client) SetTimeout(d time.Duration) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.timeout = d
}

// SetRetry tunes the failover budget: total attempts across re-resolves
// and the base backoff between them (doubling, capped at 1s).
func (cl *Client) SetRetry(attempts int, backoff time.Duration) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.attempts = attempts
	cl.backoff = backoff
}

// Close releases every parked keep-alive connection. The client stays
// usable; subsequent fetches just dial fresh.
func (cl *Client) Close() {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.closed = true
	cl.closeIdleLocked()
}

func (cl *Client) closeIdleLocked() {
	for addr, list := range cl.idle {
		for _, pc := range list {
			pc.Close()
		}
		delete(cl.idle, addr)
	}
}

// takeConn pops the most recently parked connection for addr, nil when
// none.
func (cl *Client) takeConn(addr string) *persistConn {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	list := cl.idle[addr]
	if len(list) == 0 {
		return nil
	}
	pc := list[len(list)-1]
	cl.idle[addr] = list[:len(list)-1]
	return pc
}

// parkConn keeps a reusable connection for addr, closing it instead when
// the client no longer reuses connections or addr's stack is full.
func (cl *Client) parkConn(addr string, pc *persistConn) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed || !cl.keepAlive || len(cl.idle[addr]) >= maxIdlePerAddr {
		pc.Close()
		return
	}
	cl.idle[addr] = append(cl.idle[addr], pc)
}

// resolve is the DNS rotation: the next address index, round robin.
func (cl *Client) resolve() (int, error) {
	if len(cl.addrs) == 0 {
		return 0, fmt.Errorf("live: client has no addresses")
	}
	return int((cl.next.Add(1) - 1) % uint64(len(cl.addrs))), nil
}

// Get fetches path, following redirects (up to 4 hops as browsers did) and
// failing over to the next address when one is unreachable.
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
		node, err := cl.resolve()
		if err != nil {
			return err
		}
		resolvedNode, resolvedAt = node, time.Now()
		r, err := cl.getVia(cl.addrs[node], path, start)
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

// GetVia fetches path entering at the node-th address, bypassing the
// rotation and the failover budget — benchmarks and chaos tests pin the
// entry node so cache placement and internal-fetch direction are
// deterministic. Redirects are still followed like Get's.
func (cl *Client) GetVia(node int, path string) (*Result, error) {
	if node < 0 || node >= len(cl.addrs) {
		return nil, fmt.Errorf("live: no node %d", node)
	}
	return cl.getVia(cl.addrs[node], path, time.Now())
}

// traceQueryParam mirrors the httpd swebt parameter name; the client sends
// a bare trace id (no send timestamp — there is no hop to measure yet).
const traceQueryParam = "swebt"

// sinceEpoch converts a wall instant to the client's trace clock.
func (cl *Client) sinceEpoch(t time.Time) float64 {
	return t.Sub(cl.epoch).Seconds()
}

// appendQueryParam adds one key=value to a path-and-query string.
func appendQueryParam(pathAndQuery, kv string) string {
	if strings.Contains(pathAndQuery, "?") {
		return pathAndQuery + "&" + kv
	}
	return pathAndQuery + "?" + kv
}

// getVia performs one full fetch entering the cluster at addr.
func (cl *Client) getVia(addr, path string, start time.Time) (*Result, error) {
	redirected := false
	for hop := 0; hop < 4; hop++ {
		resp, firstByte, err := cl.exchange(addr, "GET", path, nil)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == httpmsg.StatusMovedTemporarily {
			loc := resp.Header.Get("Location")
			naddr, npath, ok := splitLocation(loc)
			if !ok {
				return nil, fmt.Errorf("live: bad Location %q", loc)
			}
			addr, path = naddr, npath
			redirected = true
			continue
		}
		return &Result{
			Status: resp.StatusCode, Body: resp.Body, Redirected: redirected,
			ServedBy: addr, TTFB: firstByte.Sub(start), Elapsed: time.Since(start),
		}, nil
	}
	return nil, fmt.Errorf("live: too many redirects for %s", path)
}

// Post sends a POST with body to path on the next address in the rotation
// (the footnote-1 extension). It follows no redirect and does not fail
// over.
func (cl *Client) Post(path string, body []byte) (*Result, error) {
	start := time.Now()
	node, err := cl.resolve()
	if err != nil {
		return nil, err
	}
	addr := cl.addrs[node]
	resp, firstByte, err := cl.exchange(addr, "POST", path, body)
	if err != nil {
		return nil, err
	}
	return &Result{
		Status: resp.StatusCode, Body: resp.Body, ServedBy: addr,
		TTFB: firstByte.Sub(start), Elapsed: time.Since(start),
	}, nil
}

// exchange runs one request/response with addr and returns the response
// and the instant its first byte arrived. With keep-alive on it speaks
// HTTP/1.1, a GET over a parked connection when there is one (dialing
// fresh if the server timed that one out), and parks the connection again
// when the response's framing leaves it clean. With keep-alive off it is
// a one-shot HTTP/1.0 exchange.
func (cl *Client) exchange(addr, method, pathAndQuery string, body []byte) (*httpmsg.Response, time.Time, error) {
	cl.mu.Lock()
	keepAlive, timeout := cl.keepAlive && !cl.closed, cl.timeout
	cl.mu.Unlock()
	req := newRequest(method, pathAndQuery, body, keepAlive)
	// Only a GET rides a parked connection: when that connection turns out
	// stale the request is sent again on a fresh one, and a POST must not
	// be sent twice.
	if keepAlive && method == "GET" {
		if pc := cl.takeConn(addr); pc != nil {
			if resp, firstByte, err := roundTrip(pc, req, timeout); err == nil {
				cl.finish(addr, pc, resp)
				return resp, firstByte, nil
			}
			pc.Close()
		}
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, time.Time{}, err
	}
	pc := &persistConn{c: conn, br: bufio.NewReader(conn)}
	resp, firstByte, err := roundTrip(pc, req, timeout)
	if err != nil {
		pc.Close()
		return nil, time.Time{}, err
	}
	cl.finish(addr, pc, resp)
	return resp, firstByte, nil
}

// newRequest parses "/path?query" into a request; keepAlive selects the
// HTTP/1.1 persistent form. The path is decoded first: redirect Locations
// arrive percent-escaped, and Request.Write re-escapes on the wire.
func newRequest(method, pathAndQuery string, body []byte, keepAlive bool) *httpmsg.Request {
	p, q, _ := strings.Cut(pathAndQuery, "?")
	if dp, err := httpmsg.DecodePath(p); err == nil {
		p = dp
	}
	req := &httpmsg.Request{Method: method, Path: p, Query: q, Header: httpmsg.Header{}, Body: body}
	if keepAlive {
		req.Proto = "HTTP/1.1"
		req.Header.Set("Connection", "keep-alive")
	}
	return req
}

// roundTrip writes req on pc and reads the whole response, noting when
// its first byte arrived.
func roundTrip(pc *persistConn, req *httpmsg.Request, timeout time.Duration) (*httpmsg.Response, time.Time, error) {
	_ = pc.c.SetDeadline(time.Now().Add(timeout))
	if err := req.Write(pc.c); err != nil {
		return nil, time.Time{}, err
	}
	// Peek blocks until the first response byte is readable — the honest
	// client-side TTFB instant — without consuming it from the parser.
	if _, err := pc.br.Peek(1); err != nil {
		return nil, time.Time{}, err
	}
	firstByte := time.Now()
	resp, err := httpmsg.ReadResponse(pc.br, maxBody)
	return resp, firstByte, err
}

// finish parks pc for reuse when the response says the server is keeping
// the connection open and the framing consumed the body exactly.
func (cl *Client) finish(addr string, pc *persistConn, resp *httpmsg.Response) {
	if resp.KeepAlive() && resp.SelfDelimited() {
		cl.parkConn(addr, pc)
	} else {
		pc.Close()
	}
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
