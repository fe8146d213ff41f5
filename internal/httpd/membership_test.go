package httpd

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sweb/internal/core"
	"sweb/internal/httpmsg"
	"sweb/internal/loadd"
	"sweb/internal/metrics"
	"sweb/internal/storage"
)

// gossipNodes binds n nodes with no documents, each configured by mut, and
// installs the full membership on every one. None is started.
func gossipNodes(t *testing.T, n int, mut func(*Config)) []*Server {
	t.Helper()
	st := storage.NewStore(n)
	var srvs []*Server
	for i := 0; i < n; i++ {
		cfg := Config{ID: i, DocRoot: t.TempDir(), Store: st}
		if mut != nil {
			mut(&cfg)
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		srvs = append(srvs, srv)
	}
	peers := make([]Peer, n)
	for i, srv := range srvs {
		peers[i] = Peer{ID: i, HTTPAddr: srv.Addr(), UDPAddr: srv.UDPAddr()}
	}
	for _, srv := range srvs {
		srv.SetPeers(peers)
	}
	return srvs
}

// waitFor polls cond until it holds, failing the test after within.
func waitFor(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within %v", what, within)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// scrape reads srv's exposition in-process.
func scrape(t *testing.T, srv *Server) []metrics.Sample {
	t.Helper()
	var buf bytes.Buffer
	if err := srv.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// knows reports whether srv holds a fresh, usable sample from peer.
func knows(srv *Server, peer int) bool {
	return srv.Table().Snapshot(peer+1, srv.nowSec())[peer].Available
}

// TestJoinReplyOnFirstContact: a node that comes up after its peer's
// start-up broadcast went out learns the peer from the peer's reply to its
// own first sample, not at the peer's next period (an hour away here).
func TestJoinReplyOnFirstContact(t *testing.T) {
	var sends atomic.Int64
	srvs := gossipNodes(t, 2, func(c *Config) {
		c.LoaddPeriod = time.Hour
		if c.ID == 0 {
			// Node 0's start-up broadcast is lost, as if node 1 were not up.
			c.DropBroadcast = func() bool { return sends.Add(1) == 1 }
		}
	})
	srvs[0].Start()
	waitFor(t, time.Second, "node 0's start-up broadcast", func() bool { return sends.Load() >= 1 })
	srvs[1].Start()
	waitFor(t, time.Second, "node 0 knows node 1", func() bool { return knows(srvs[0], 1) })
	waitFor(t, time.Second, "node 1 knows node 0", func() bool { return knows(srvs[1], 0) })
}

// TestRestartWithinTimeoutRejoins: a node restarted on the same addresses
// starts its clock over, so its samples are older than the last one heard
// from its previous run. The survivor must take the first of them at once,
// and answer it so the restarted node knows the survivor too.
func TestRestartWithinTimeoutRejoins(t *testing.T) { testRestartRejoins(t, false) }

// TestRestartAfterTimeoutRejoins: the same, once the survivor has already
// timed the dead node out.
func TestRestartAfterTimeoutRejoins(t *testing.T) { testRestartRejoins(t, true) }

func testRestartRejoins(t *testing.T, stale bool) {
	srvs := gossipNodes(t, 2, func(c *Config) {
		c.LoaddPeriod = time.Hour
		if stale && c.ID == 0 {
			c.LoaddTimeout = 300 * time.Millisecond
		}
		if c.ID == 1 {
			c.LoaddPeriod = 100 * time.Millisecond
		}
	})
	survivor, old := srvs[0], srvs[1]
	survivor.Start()
	old.Start()
	waitFor(t, 5*time.Second, "node 1 gossips for a second", func() bool {
		s, ok := survivor.Table().Advertised(1)
		return ok && s.SentAt >= 1
	})
	last, _ := survivor.Table().Advertised(1)
	old.Close()
	if stale {
		waitFor(t, 5*time.Second, "node 1 timed out", func() bool { return !knows(survivor, 1) })
	}

	cfg := old.cfg
	cfg.Addr, cfg.UDPAddr = old.Addr(), old.UDPAddr()
	cfg.Epoch = time.Now()
	cfg.LoaddPeriod = time.Hour // only the start-up broadcast: the reply must do the rest
	restarted, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restarted.Close)
	restarted.SetPeers([]Peer{
		{ID: 0, HTTPAddr: survivor.Addr(), UDPAddr: survivor.UDPAddr()},
		{ID: 1, HTTPAddr: restarted.Addr(), UDPAddr: restarted.UDPAddr()},
	})
	restarted.Start()
	waitFor(t, time.Second, "node 0 accepts the restarted node's first sample", func() bool {
		s, ok := survivor.Table().Advertised(1)
		return ok && s.Incarnation == restarted.incarnation && s.SentAt < last.SentAt
	})
	waitFor(t, time.Second, "the restarted node knows node 0", func() bool { return knows(restarted, 0) })
	if last.Incarnation == restarted.incarnation {
		t.Fatal("the restart kept its incarnation")
	}
}

// TestReorderedSampleStillDropped: within one incarnation, a datagram
// older than one already heard is still dropped, and is no join.
func TestReorderedSampleStillDropped(t *testing.T) {
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	srvs := gossipNodes(t, 1, func(c *Config) { c.LoaddPeriod = time.Hour })
	node := srvs[0]
	node.SetPeers([]Peer{{ID: 1, HTTPAddr: "127.0.0.1:1", UDPAddr: peer.LocalAddr().String()}})
	node.Start()

	to, err := net.ResolveUDPAddr("udp", node.UDPAddr())
	if err != nil {
		t.Fatal(err)
	}
	send := func(cpu, sentAt float64) {
		s := loadd.Sample{Node: 1, CPULoad: cpu, CPUOpsPerSec: 1, DiskBytesPerSec: 1,
			NetBytesPerSec: 1, SentAt: sentAt, Incarnation: 42}
		var buf [loadd.MaxWireSize]byte
		n, err := loadd.EncodeSample(buf[:], s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := peer.WriteToUDP(buf[:n], to); err != nil {
			t.Fatal(err)
		}
	}
	send(1, 10)
	send(99, 5) // reordered: older than the one before it
	send(2, 11)
	waitFor(t, time.Second, "the newest sample lands", func() bool {
		s, ok := node.Table().Advertised(1)
		return ok && s.SentAt == 11
	})
	var heard []float64
	for _, h := range node.Table().HistorySnapshot() {
		if h.Node != 1 { // node 0's own samples share the table
			continue
		}
		for _, r := range h.Records {
			heard = append(heard, r.SentAt)
		}
	}
	if len(heard) != 2 || heard[0] != 10 || heard[1] != 11 {
		t.Fatalf("node 1's samples recorded: sent at %v, want [10 11]", heard)
	}
	// The start-up broadcast and at most one reply, to the first sample:
	// never to the reordered one.
	waitFor(t, time.Second, "the start-up broadcast", func() bool { return node.Stats().Broadcasts >= 1 })
	if got := node.Stats().Broadcasts; got > 2 {
		t.Fatalf("broadcasts = %d, want at most 2", got)
	}
}

// TestNoReplyStorm: replies answer joins only. Over a converged cluster's
// whole life, every node sends one datagram per peer per broadcast tick,
// plus at most two join replies per pair of nodes.
func TestNoReplyStorm(t *testing.T) {
	const n = 3
	srvs := gossipNodes(t, n, func(c *Config) { c.LoaddPeriod = 20 * time.Millisecond })
	for _, srv := range srvs {
		srv.Start()
	}
	for _, a := range srvs {
		for _, b := range srvs {
			if a != b {
				waitFor(t, 5*time.Second, "convergence", func() bool { return knows(a, b.ID()) })
			}
		}
	}
	time.Sleep(500 * time.Millisecond)
	for _, srv := range srvs {
		srv.Close()
	}
	replies, ticks0 := int64(0), int64(-1)
	for _, srv := range srvs {
		// Every tick but the first observes the self-drift histogram once.
		drift, _ := metrics.Value(scrape(t, srv), mGossipDrift+"_count", metrics.Labels{"facet": "cpu"})
		ticks := int64(drift) + 1
		extra := srv.Stats().Broadcasts - (n-1)*ticks
		t.Logf("node %d: %d ticks, %d broadcasts, %d replies", srv.ID(), ticks, srv.Stats().Broadcasts, extra)
		if extra < 0 || extra > n-1 {
			t.Fatalf("node %d sent %d datagrams in %d ticks to %d peers", srv.ID(), srv.Stats().Broadcasts, ticks, n-1)
		}
		replies += extra
		if srv.ID() == 0 {
			ticks0 = ticks
		}
	}
	if pairs := int64(n * (n - 1) / 2); replies > 2*pairs {
		t.Fatalf("%d join replies for %d pairs", replies, pairs)
	}
	if ticks0 < 10 {
		t.Fatalf("node 0 broadcast only %d times in 0.5 s at a 20 ms period", ticks0)
	}
}

// TestUntracedRedirectMeasuresHop: an untraced 302 still stamps its send
// time, so the target records t_redirection. The target records it before
// it answers, so reading it after the response is race-free.
func TestUntracedRedirectMeasuresHop(t *testing.T) {
	node, target, doc := startPairRR(t, func(c *Config) {
		c.Policy = core.FileLocality{P: core.DefaultParams()}
	})
	waitFor(t, 5*time.Second, "node 0 knows node 1", func() bool { return knows(node, 1) })
	resp := getWith(t, node.Addr(), doc, nil)
	if resp.StatusCode != httpmsg.StatusMovedTemporarily {
		t.Fatalf("GET at the non-owner = %d, want 302", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	rest, ok := strings.CutPrefix(loc, "http://"+target.Addr())
	if !ok || !strings.Contains(rest, "swebt=:") {
		t.Fatalf("Location %q: want the target with an id-less swebt stamp", loc)
	}
	path, query, _ := strings.Cut(rest, "?")
	conn := dialNode(t, target.Addr())
	req := &httpmsg.Request{Method: "GET", Path: path, Query: query, Header: httpmsg.Header{}}
	if err := req.Write(conn); err != nil {
		t.Fatal(err)
	}
	if resp, err := httpmsg.ReadResponse(bufio.NewReader(conn), 1<<20); err != nil || resp.StatusCode != httpmsg.StatusOK {
		t.Fatalf("following the 302: %v %v", resp, err)
	}
	if n, _ := metrics.Value(scrape(t, target), "sweb_phase_seconds_count", metrics.Labels{"phase": "redirect_hop"}); n != 1 {
		t.Fatalf("target's redirect_hop count = %v, want 1", n)
	}
}

// TestUnconfiguredSenderIgnored: gossip from a node outside the configured
// membership is dropped before the table sees it, so a stray or forged
// datagram adds no row, no per-peer series and no scheduling target. Node 0
// knows peers {0, 2}; two samples claiming to be node 1 arrive, then one
// from node 2, whose landing shows the listener got past node 1's.
func TestUnconfiguredSenderIgnored(t *testing.T) {
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	srvs := gossipNodes(t, 1, func(c *Config) { c.LoaddPeriod = time.Hour })
	node := srvs[0]
	node.SetPeers([]Peer{{ID: 2, HTTPAddr: "127.0.0.1:1", UDPAddr: sock.LocalAddr().String()}})
	node.Start()
	to, err := net.ResolveUDPAddr("udp", node.UDPAddr())
	if err != nil {
		t.Fatal(err)
	}
	send := func(from int, sentAt float64) {
		s := loadd.Sample{Node: from, CPUOpsPerSec: 1, DiskBytesPerSec: 1, NetBytesPerSec: 1,
			SentAt: sentAt, Incarnation: 7}
		var buf [loadd.MaxWireSize]byte
		n, err := loadd.EncodeSample(buf[:], s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sock.WriteToUDP(buf[:n], to); err != nil {
			t.Fatal(err)
		}
	}
	send(1, 1)
	send(1, 2)
	send(2, 1)
	waitFor(t, time.Second, "node 2's sample lands", func() bool { return knows(node, 2) })
	for _, id := range node.Table().Known() {
		if id == 1 {
			t.Fatalf("table rows %v include unconfigured node 1", node.Table().Known())
		}
	}
	for _, s := range scrape(t, node) {
		if s.Labels["peer"] == "1" {
			t.Fatalf("exposition carries series %s for unconfigured node 1", s.Key())
		}
	}
}
