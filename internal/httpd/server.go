// Package httpd is the live SWEB node: a from-scratch HTTP server (in the
// mold of the NCSA httpd 1.3 that SWEB was built on, extended with
// HTTP/1.1 persistent connections) that runs the paper's four-phase
// request lifecycle — preprocess, analyze, redirect, fulfill — against
// real TCP sockets, with the same core scheduling policies and loadd
// tables as the simulator, gossiping load over UDP. File locality is real:
// each node serves its own document root and fetches documents it does not
// own from the owning peer over pooled internal HTTP connections (the
// NFS-cross-mount stand-in).
package httpd

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sweb/internal/accesslog"
	"sweb/internal/cache"
	"sweb/internal/core"
	"sweb/internal/loadd"
	"sweb/internal/metrics"
	"sweb/internal/nodeobs"
	"sweb/internal/oracle"
	"sweb/internal/retry"
	"sweb/internal/slo"
	"sweb/internal/storage"
	"sweb/internal/trace"
)

// Peer identifies one cluster member.
type Peer struct {
	ID       int
	HTTPAddr string // host:port of the peer's HTTP listener
	UDPAddr  string // host:port of the peer's loadd socket
}

// CGIFunc is a registered dynamic endpoint ("any CGI's executed as
// needed"). It receives the query string and optional POST body and
// returns the response body and content type.
type CGIFunc func(query string, body []byte) (out []byte, contentType string)

// Config describes one live node.
type Config struct {
	// ID is this node's index in the cluster.
	ID int
	// Addr is the HTTP listen address ("127.0.0.1:0" for ephemeral).
	Addr string
	// UDPAddr is the loadd listen address ("127.0.0.1:0" for ephemeral).
	UDPAddr string
	// DocRoot is the directory holding the documents this node owns.
	DocRoot string
	// Store is the cluster-wide ownership map.
	Store *storage.Store
	// Policy decides request placement (default: SWEB with Params).
	Policy core.Policy
	// Params tunes the scheduler (default core.DefaultParams).
	Params core.Params
	// HaveParams marks Params as intentionally set.
	HaveParams bool
	// Oracle characterizes requests (default table).
	Oracle *oracle.Oracle
	// LoaddPeriod is the broadcast interval (default 2500ms ± jitter).
	LoaddPeriod time.Duration
	// LoaddTimeout silences a peer (default 8s).
	LoaddTimeout time.Duration
	// MaxConcurrent is the accept capacity; beyond it connections get 503
	// (default 256).
	MaxConcurrent int

	// IdleTimeout is how long a keep-alive connection may sit idle between
	// requests before the server closes it (default 15s).
	IdleTimeout time.Duration
	// KeepAliveMax caps the requests served per connection before the
	// server answers Connection: close (default 100; <0 means unlimited).
	KeepAliveMax int
	// KeepAliveOff disables persistent connections entirely: every
	// response carries Connection: close, restoring the one-request-per-
	// connection behavior. The -keepalive=false ablation switch.
	KeepAliveOff bool

	// FetchAttempts is the attempt budget for internal fetches against a
	// document's owner (default 3; 1 disables retry).
	FetchAttempts int
	// FetchBackoff is the base delay between internal-fetch attempts; it
	// doubles per failure with ±20% jitter (default 100ms).
	FetchBackoff time.Duration
	// FetchTimeout is the per-attempt dial timeout for internal fetches
	// (default 5s).
	FetchTimeout time.Duration
	// RetryAfterHint is the Retry-After value stamped on degraded 503
	// responses (default 2s).
	RetryAfterHint time.Duration
	// FailureLimit is the consecutive data-path failure count at which a
	// peer is scheduled around even if its broadcasts still look fresh
	// (default loadd.DefaultFailureLimit).
	FailureLimit int

	// CacheBytes is the hot-file memory cache capacity (default
	// DefaultCacheBytes). Documents at most this size are kept in memory
	// after their first read — local disk reads and remote-fetch results
	// alike — and served without touching the disk or the owner again
	// until they are evicted or the backing file changes.
	CacheBytes int64
	// CacheOff disables the hot-file cache entirely: every request pays
	// the full b1 disk (or internal-fetch) cost, as before the cache
	// existed. The -cache-off ablation switch.
	CacheOff bool

	// DialDelay, when non-nil, is consulted before every internal-fetch
	// dial and the returned duration slept — fault injection for tests.
	DialDelay func() time.Duration
	// DropBroadcast, when non-nil, reports whether to drop an outgoing
	// loadd datagram, a periodic broadcast or a join reply — fault
	// injection for tests. It may be called from two goroutines at once.
	DropBroadcast func() bool

	// Capabilities advertised in load broadcasts. Defaults describe the
	// host loosely; they only need to be consistent across the cluster.
	CPUOpsPerSec    float64
	DiskBytesPerSec float64
	NetBytesPerSec  float64

	// AccessLog, when non-nil, receives one NCSA Common Log Format line
	// per response the node writes, internal fetches and shed connections
	// included. A response whose write failed is logged all the same, with
	// the status its head carried and the body bytes handed to the
	// connection. Flush it before reading.
	AccessLog *accesslog.Logger

	// Trace, when non-nil, receives the same lifecycle events the
	// simulator emits (connected → parsed → analyzed → redirected /
	// fetch-local / fetch-nfs / cgi → sent), timed in seconds since the
	// server's epoch. A nil recorder costs nothing on the hot path.
	Trace *trace.Recorder
	// Epoch is the zero point of the node's trace clock. Zero means "now"
	// (New's call time); a cluster harness sets one shared instant so all
	// nodes' event streams stitch without alignment, and the collector
	// aligns independently-started nodes via their advertised epochs.
	Epoch time.Time
	// DisableIntrospection turns off the /sweb/status and /sweb/metrics
	// endpoints (served by default on the main listener).
	DisableIntrospection bool

	// FlightRing sizes the flight recorder's recent ring (default
	// flight.DefaultCap); FlightNotable sizes the always-retained
	// slow/error ring (default flight.DefaultNotableCap).
	FlightRing    int
	FlightNotable int
	// SlowThreshold routes requests slower than this into the notable
	// ring (default 1s; negative disables slow routing, errors are still
	// retained).
	SlowThreshold time.Duration
	// HeatK sizes the document-heat sketch: the number of hottest paths
	// tracked per node (default heat.DefaultK).
	HeatK int
	// SnapshotDir, when set, enables diagnostic snapshot bundles: the
	// /sweb/snapshot endpoint writes timestamped bundle directories under
	// it.
	SnapshotDir string
	// SLO is the node's service-level objectives, reported on /sweb/slo
	// against the registry's lifetime counters (slo.DefaultObjectives when
	// empty).
	SLO []slo.Objective
}

func (c *Config) fillDefaults() error {
	if c.Store == nil {
		return fmt.Errorf("httpd: Config.Store is required")
	}
	if c.DocRoot == "" {
		return fmt.Errorf("httpd: Config.DocRoot is required")
	}
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.UDPAddr == "" {
		c.UDPAddr = "127.0.0.1:0"
	}
	if !c.HaveParams {
		c.Params = core.DefaultParams()
	}
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.Policy == nil {
		c.Policy = core.NewSWEB(c.Params)
	}
	if c.Oracle == nil {
		c.Oracle = oracle.New(oracle.DefaultDemand())
	}
	if c.LoaddPeriod == 0 {
		c.LoaddPeriod = 2500 * time.Millisecond
	}
	if c.LoaddTimeout == 0 {
		c.LoaddTimeout = 8 * time.Second
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 256
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 15 * time.Second
	}
	if c.KeepAliveMax == 0 {
		c.KeepAliveMax = 100
	}
	if c.FetchAttempts == 0 {
		c.FetchAttempts = 3
	}
	if c.FetchBackoff == 0 {
		c.FetchBackoff = 100 * time.Millisecond
	}
	if c.FetchTimeout == 0 {
		c.FetchTimeout = 5 * time.Second
	}
	if c.RetryAfterHint == 0 {
		c.RetryAfterHint = 2 * time.Second
	}
	if c.FailureLimit == 0 {
		c.FailureLimit = loadd.DefaultFailureLimit
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = DefaultCacheBytes
	}
	if c.CPUOpsPerSec == 0 {
		c.CPUOpsPerSec = 40e6
	}
	if c.DiskBytesPerSec == 0 {
		c.DiskBytesPerSec = 5e6
	}
	if c.NetBytesPerSec == 0 {
		c.NetBytesPerSec = 5e6
	}
	return nil
}

// Stats are the server's cumulative counters (Inflight and RequestsActive
// are the only instantaneous values: open connections and requests being
// processed right now — under keep-alive the two diverge). Drops maps a
// degradation cause ("shed", "bad_request", "not_found",
// "owner_unreachable", ...) to its count — the same cells the
// sweb_drops_total metric exposes.
type Stats struct {
	Accepted       int64            `json:"accepted"`
	Refused        int64            `json:"refused"`
	Served         int64            `json:"served"`
	Redirected     int64            `json:"redirected"`
	InternalFetch  int64            `json:"internal_fetch"`
	Errors         int64            `json:"errors"`
	BadRequests    int64            `json:"bad_requests"`
	NotFound       int64            `json:"not_found"`
	FetchFailed    int64            `json:"fetch_failed"`
	Introspect     int64            `json:"introspect"`
	BytesOut       int64            `json:"bytes_out"`
	Inflight       int64            `json:"inflight"`
	RequestsActive int64            `json:"requests_active"`
	UpstreamDials  int64            `json:"upstream_dials"`
	UpstreamReused int64            `json:"upstream_reused"`
	Broadcasts     int64            `json:"broadcasts"`
	SamplesHeard   int64            `json:"samples_heard"`
	IdleReaped     int64            `json:"idle_reaped"`
	Drops          map[string]int64 `json:"drops,omitempty"`
}

// DefaultCacheBytes is the default hot-file cache capacity: 64 MB, a
// 2× oversubscription of the Meiko node's 32 MB RAM scaled to a modern
// host — big enough to hold a paper-style hot set of 1.5 MB documents.
const DefaultCacheBytes int64 = 64 << 20

// Server is one live SWEB node.
type Server struct {
	cfg   Config
	ln    net.Listener
	udp   *net.UDPConn
	table *loadd.Table
	epoch time.Time
	// incarnation names this run of the node in its load samples, so peers
	// tell a restart from a reordered datagram.
	incarnation uint64

	// cache is the hot-file memory cache; nil when Config.CacheOff.
	cache *cache.Cache

	peersMu sync.RWMutex
	peers   map[int]Peer
	// configured holds, by node id, the "http://<addr>" a 302 to a
	// configured peer (or this node) starts with, and "" for a row of the
	// broker's load view that no configured peer fills; its length is the
	// view's.
	configured []string

	// knownPath interns a parsed request path as the manifest's own
	// string (storage.Store.Intern), bound once.
	knownPath func([]byte) (string, bool)

	// inflight counts open client connections (the shed signal);
	// reqActive counts requests mid-lifecycle (the load signal). Under
	// keep-alive a parked idle connection holds inflight but not
	// reqActive.
	inflight   atomic.Int64
	reqActive  atomic.Int64
	diskActive atomic.Int64
	netActive  atomic.Int64

	// conns tracks open client connections so drain and close can wake
	// ones parked in idle keep-alive reads, and carries the per-connection
	// state the flight recorder and the conn-table snapshot read. Once
	// connsClosed, Close has closed them all and tracks no more.
	connMu      sync.Mutex
	conns       map[net.Conn]*connInfo
	connsClosed bool
	connSeq     atomic.Int64 // connection ids, monotone per node
	// handoff carries an accepted connection to a serve goroutine parked
	// between connections (serveConns); unbuffered, so a send succeeds
	// only when one is waiting.
	handoff chan net.Conn

	idleReaped atomic.Int64

	// ups pools idle internal-fetch connections per peer.
	ups                           *upstreamPool
	upstreamDials, upstreamReused atomic.Int64

	accepted, refused, served, redirected atomic.Int64
	internalFetch, errors, bytesOut       atomic.Int64
	broadcasts, samplesHeard              atomic.Int64
	badRequests, notFound                 atomic.Int64
	fetchFailed, introspect               atomic.Int64

	dropMu     sync.Mutex
	dropCounts map[string]int64

	// obs is the node's telemetry (registry, flight recorder, heat
	// sketch); kaServed is its one live-only request-path histogram.
	obs      *nodeobs.Observer
	kaServed *metrics.Histogram

	// lastAdvertised is the previous broadcast's sample, for the
	// advertised-vs-now drift histograms. Touched only by the broadcast
	// goroutine.
	lastAdvertised     loadd.Sample
	haveLastAdvertised bool

	cgiMu sync.RWMutex
	cgi   map[string]CGIFunc

	closed   chan struct{}
	draining chan struct{}
	closeMu  sync.Mutex
	wg       sync.WaitGroup
}

// New binds the node's HTTP and UDP sockets but does not serve yet; read
// the bound addresses with Addr/UDPAddr, distribute them as peers, then
// call SetPeers and Start.
func New(cfg Config) (*Server, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	// No TCP keep-alive probes: IdleTimeout reaps a parked connection and
	// the write deadline a stalled one, so the probes' four setsockopt
	// calls per accepted connection would buy nothing.
	lc := net.ListenConfig{KeepAlive: -1}
	ln, err := lc.Listen(context.Background(), "tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("httpd: listen %s: %w", cfg.Addr, err)
	}
	uaddr, err := net.ResolveUDPAddr("udp", cfg.UDPAddr)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("httpd: resolve %s: %w", cfg.UDPAddr, err)
	}
	udp, err := net.ListenUDP("udp", uaddr)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("httpd: udp listen %s: %w", cfg.UDPAddr, err)
	}
	epoch := cfg.Epoch
	if epoch.IsZero() {
		epoch = time.Now()
	}
	s := &Server{
		cfg:        cfg,
		ln:         ln,
		udp:        udp,
		table:      newHealthTable(cfg),
		epoch:      epoch,
		peers:      make(map[int]Peer),
		cgi:        make(map[string]CGIFunc),
		closed:     make(chan struct{}),
		draining:   make(chan struct{}),
		dropCounts: make(map[string]int64),
		conns:      make(map[net.Conn]*connInfo),
		handoff:    make(chan net.Conn),
		ups:        newUpstreamPool(0),
		// Odd, so never zero: zero is the "unknown" incarnation.
		incarnation: rand.Uint64() | 1,
	}
	if !cfg.CacheOff {
		s.cache = cache.New(cfg.CacheBytes)
	}
	s.configured = make([]string, cfg.ID+1)
	s.knownPath = cfg.Store.Intern
	s.obs, s.kaServed = newObserver(s)
	return s, nil
}

// Cache exposes the node's hot-file cache (nil when disabled) for tests
// and the status report.
func (s *Server) Cache() *cache.Cache { return s.cache }

// newHealthTable builds the loadd table with the configured data-path
// failure threshold.
func newHealthTable(cfg Config) *loadd.Table {
	t := loadd.NewTable(cfg.ID, cfg.LoaddTimeout.Seconds(), cfg.Params.Delta)
	t.SetFailureLimit(cfg.FailureLimit)
	return t
}

// ID returns the node id.
func (s *Server) ID() int { return s.cfg.ID }

// Addr returns the bound HTTP address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// UDPAddr returns the bound loadd address.
func (s *Server) UDPAddr() string { return s.udp.LocalAddr().String() }

// Epoch returns the zero point of the node's trace clock.
func (s *Server) Epoch() time.Time { return s.epoch }

// SetPeers installs the cluster membership (including this node) and
// registers the per-peer gossip gauges — the scheduler's decision inputs
// (broadcast staleness, advertised loads) become scrapeable the moment the
// membership is known. The registry dedups, so re-installing peers after a
// membership change is safe.
func (s *Server) SetPeers(peers []Peer) {
	s.peersMu.Lock()
	for _, p := range peers {
		s.peers[p.ID] = p
	}
	n := s.cfg.ID + 1
	for id := range s.peers {
		n = max(n, id+1)
	}
	s.configured = make([]string, n)
	for id, p := range s.peers {
		s.configured[id] = peerBase(p.HTTPAddr)
	}
	s.peersMu.Unlock()
	for _, p := range peers {
		if p.ID == s.cfg.ID {
			continue
		}
		s.obs.Peer(p.ID)
	}
}

// RegisterCGI installs a dynamic endpoint at path.
func (s *Server) RegisterCGI(path string, fn CGIFunc) {
	s.cgiMu.Lock()
	defer s.cgiMu.Unlock()
	s.cgi[path] = fn
}

func (s *Server) cgiFor(path string) (CGIFunc, bool) {
	s.cgiMu.RLock()
	defer s.cgiMu.RUnlock()
	fn, ok := s.cgi[path]
	return fn, ok
}

// Start launches the accept loop, the loadd broadcaster, and the loadd
// listener.
func (s *Server) Start() {
	s.wg.Add(3)
	go s.acceptLoop()
	go s.broadcastLoop()
	go s.listenLoop()
}

// connInfo is the tracked state of one open client connection, shared by
// its serve loop and the conn-table snapshot. Its reqConn rewrites id and
// opened only while the connection is untracked (reqConn.reset).
type connInfo struct {
	id     int64
	opened time.Time
	served atomic.Int64
	active atomic.Bool // a request is mid-lifecycle right now
}

// trackConn registers an open client connection for drain/close wakeups
// and the conn table, and reports false, tracking nothing, once Close
// has closed the tracked connections.
func (s *Server) trackConn(c net.Conn, ci *connInfo) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.connsClosed {
		return false
	}
	s.conns[c] = ci
	return true
}

func (s *Server) untrackConn(c net.Conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
}

// nudgeConns expires every tracked connection's read deadline so serve
// loops parked in idle keep-alive reads wake immediately instead of
// sitting out the idle timeout during drain.
func (s *Server) nudgeConns() {
	s.connMu.Lock()
	for c := range s.conns {
		_ = c.SetReadDeadline(time.Now())
	}
	s.connMu.Unlock()
}

// closeConns force-closes every tracked connection (the hard-stop path)
// and stops trackConn from tracking more: a connection handed to a serve
// goroutine after this is closed unserved (serve).
func (s *Server) closeConns() {
	s.connMu.Lock()
	s.connsClosed = true
	for c := range s.conns {
		_ = c.Close()
	}
	s.connMu.Unlock()
}

// Close shuts the node down and waits for its goroutines. Open keep-alive
// connections are force-closed — Close is the hard stop; Shutdown drains.
// The cache's buffers are unmapped last, once no handler can read them.
func (s *Server) Close() {
	s.closeMu.Lock()
	select {
	case <-s.closed:
		s.closeMu.Unlock()
		return
	default:
		close(s.closed)
	}
	s.closeMu.Unlock()
	s.ln.Close()
	s.udp.Close()
	s.ups.closeAll()
	s.closeConns()
	s.wg.Wait()
	s.cache.Close()
}

// Shutdown stops the node gracefully: the listener closes immediately so
// no new connection is accepted, in-flight handlers get up to grace to
// drain, then the node is torn down as in Close. It reports whether the
// node drained fully within the grace period.
func (s *Server) Shutdown(grace time.Duration) bool {
	s.closeMu.Lock()
	select {
	case <-s.closed:
		s.closeMu.Unlock()
		return true
	default:
	}
	select {
	case <-s.draining:
	default:
		close(s.draining)
	}
	s.closeMu.Unlock()
	s.ln.Close() // acceptLoop sees draining and exits instead of spinning
	// Wake connections parked between requests; their serve loops observe
	// draining and close. Mid-request connections finish their response
	// (the write deadline is separate) and then close instead of renewing
	// keep-alive.
	s.nudgeConns()
	deadline := time.Now().Add(grace)
	drained := true
	for s.inflight.Load() > 0 {
		if time.Now().After(deadline) {
			drained = false
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.Close()
	return drained
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Accepted:       s.accepted.Load(),
		Refused:        s.refused.Load(),
		Served:         s.served.Load(),
		Redirected:     s.redirected.Load(),
		InternalFetch:  s.internalFetch.Load(),
		Errors:         s.errors.Load(),
		BadRequests:    s.badRequests.Load(),
		NotFound:       s.notFound.Load(),
		FetchFailed:    s.fetchFailed.Load(),
		Introspect:     s.introspect.Load(),
		BytesOut:       s.bytesOut.Load(),
		Inflight:       s.inflight.Load(),
		RequestsActive: s.reqActive.Load(),
		UpstreamDials:  s.upstreamDials.Load(),
		UpstreamReused: s.upstreamReused.Load(),
		Broadcasts:     s.broadcasts.Load(),
		SamplesHeard:   s.samplesHeard.Load(),
		IdleReaped:     s.idleReaped.Load(),
	}
	s.dropMu.Lock()
	if len(s.dropCounts) > 0 {
		st.Drops = make(map[string]int64, len(s.dropCounts))
		for k, v := range s.dropCounts {
			st.Drops[k] = v
		}
	}
	s.dropMu.Unlock()
	return st
}

// Table exposes the loadd table (tests and the doctor CLI).
func (s *Server) Table() *loadd.Table { return s.table }

func (s *Server) nowSec() float64 { return time.Since(s.epoch).Seconds() }

// sinceEpoch converts a wall-clock instant to trace time.
func (s *Server) sinceEpoch(t time.Time) float64 { return t.Sub(s.epoch).Seconds() }

// sample builds this node's load broadcast. CPULoad advertises requests
// being processed, not open connections — peers should not schedule around
// a node whose keep-alive connections are all idle.
func (s *Server) sample() loadd.Sample { return s.sampleAt(time.Now()) }

// sampleAt is sample as of the clock reading now.
func (s *Server) sampleAt(now time.Time) loadd.Sample {
	return loadd.Sample{
		Node:            s.cfg.ID,
		CPULoad:         float64(s.reqActive.Load()),
		DiskLoad:        float64(s.diskActive.Load()),
		NetLoad:         float64(s.netActive.Load()),
		CPUOpsPerSec:    s.cfg.CPUOpsPerSec,
		DiskBytesPerSec: s.cfg.DiskBytesPerSec,
		NetBytesPerSec:  s.cfg.NetBytesPerSec,
		SentAt:          s.sinceEpoch(now),
		Incarnation:     s.incarnation,
	}
}

// broadcastLoop sends the load sample to every peer at the loadd period
// (with mild per-node jitter, like the paper's 2-3 s spread).
func (s *Server) broadcastLoop() {
	defer s.wg.Done()
	jitter := time.Duration(s.cfg.ID%5) * 100 * time.Millisecond
	ticker := time.NewTicker(s.cfg.LoaddPeriod + jitter)
	defer ticker.Stop()
	s.broadcastOnce()
	for {
		select {
		case <-s.closed:
			return
		case <-ticker.C:
			s.broadcastOnce()
		}
	}
}

func (s *Server) broadcastOnce() {
	smp := s.sample()
	// A node always trusts its own fresh numbers.
	if err := s.table.Update(smp, s.nowSec()); err != nil {
		return
	}
	// Self-drift: how far the load moved since the numbers last advertised
	// to the cluster — the error every peer's view of this node carries
	// for up to a gossip period.
	if s.haveLastAdvertised {
		s.gossipDrift("cpu", smp.CPULoad-s.lastAdvertised.CPULoad)
		s.gossipDrift("disk", smp.DiskLoad-s.lastAdvertised.DiskLoad)
		s.gossipDrift("net", smp.NetLoad-s.lastAdvertised.NetLoad)
	}
	s.lastAdvertised, s.haveLastAdvertised = smp, true
	s.peersMu.RLock()
	to := make([]Peer, 0, len(s.peers))
	for id, p := range s.peers {
		if id != s.cfg.ID {
			to = append(to, p)
		}
	}
	s.peersMu.RUnlock()
	s.gossip(smp, to...)
}

// gossip encodes smp once and unicasts it to each peer in to. It is the one
// send path of both the periodic broadcast and the join reply: every
// datagram passes the injected loss, and each one the socket takes counts
// as a broadcast.
func (s *Server) gossip(smp loadd.Sample, to ...Peer) {
	var buf [loadd.MaxWireSize]byte
	n, err := loadd.EncodeSample(buf[:], smp)
	if err != nil {
		return
	}
	for _, p := range to {
		if drop := s.cfg.DropBroadcast; drop != nil && drop() {
			continue // injected gossip loss
		}
		addr, err := net.ResolveUDPAddr("udp", p.UDPAddr)
		if err != nil {
			continue
		}
		if _, err := s.udp.WriteToUDP(buf[:n], addr); err == nil {
			s.broadcasts.Add(1)
		}
	}
}

// listenLoop ingests peer broadcasts. A sample that joins its sender — first
// contact, silence past the timeout, or a restart — is answered at once
// with this node's own sample, so the newcomer can schedule onto this node
// one round trip after it starts instead of one gossip period. Only
// configured peers are heard, and a reply goes to the configured address: a
// forged datagram can neither add a table row nor aim a reply anywhere else.
func (s *Server) listenLoop() {
	defer s.wg.Done()
	buf := make([]byte, loadd.MaxWireSize)
	errStreak := 0
	for {
		n, _, err := s.udp.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			// Back off on repeated transient errors instead of busy-
			// spinning the core; the streak resets on the next good read.
			errStreak++
			if errStreak > 1 {
				time.Sleep(retry.Backoff(errStreak-1, time.Millisecond, 100*time.Millisecond))
			}
			continue
		}
		errStreak = 0
		smp, err := loadd.DecodeSample(buf[:n])
		if err != nil {
			continue // drop corrupt datagrams
		}
		p, ok := s.peerByID(smp.Node)
		if !ok || smp.Node == s.cfg.ID {
			// Echoes, and nodes outside the configured membership: a stray
			// or forged datagram must not grow the table, the per-peer
			// series or the broker's choices.
			continue
		}
		now := s.nowSec()
		prevAge := s.table.Age(smp.Node, now)
		joined, err := s.table.Receive(smp, now)
		if err != nil {
			continue
		}
		s.samplesHeard.Add(1)
		if prevAge >= 0 {
			// Gap between consecutive receptions from this peer — the
			// distribution the staleness gauge samples from.
			s.gossipInterval(smp.Node, prevAge)
		}
		if joined {
			s.gossip(s.sample(), p)
		}
	}
}
