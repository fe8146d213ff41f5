package httpd

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sweb/internal/core"
	"sweb/internal/httpmsg"
	"sweb/internal/leakcheck"
	"sweb/internal/storage"
)

// stallPeer is a hand-rolled owner of one document: it answers every
// request with a sized 200 header and the first cut bytes of body, then
// holds the rest back until release is called. With dies set it never
// sends the rest: release closes its listener and then the connection, as
// a killed node's are. hits counts the requests it parsed.
func stallPeer(t *testing.T, body []byte, cut int, dies bool) (addr string, release func(), hits *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	gate := make(chan struct{})
	var once sync.Once
	release = func() {
		once.Do(func() {
			if dies {
				ln.Close()
			}
			close(gate)
		})
	}
	hits = new(atomic.Int64)
	head := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", len(body))
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				if _, err := httpmsg.ReadRequest(bufio.NewReader(c)); err != nil {
					return
				}
				hits.Add(1)
				_, _ = c.Write(append([]byte(head), body[:cut]...))
				<-gate
				if !dies {
					_, _ = c.Write(body[cut:])
				}
			}(c)
		}
	}()
	return ln.Addr().String(), release, hits
}

// relayNode starts node 0 of a cluster whose node i+1 is the hand-rolled
// peer at addrs[i], over a store holding files; one attempt per source.
func relayNode(t *testing.T, mut func(*Config), addrs []string, files ...storage.File) *Server {
	t.Helper()
	st := storage.NewStore(len(addrs) + 1)
	for _, f := range files {
		st.MustAdd(f)
	}
	cfg := Config{ID: 0, DocRoot: t.TempDir(), Store: st, Policy: core.RoundRobin{},
		FetchAttempts: 1, FetchBackoff: time.Millisecond}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	peers := []Peer{{ID: 0, HTTPAddr: srv.Addr(), UDPAddr: srv.UDPAddr()}}
	for i, a := range addrs {
		peers = append(peers, Peer{ID: i + 1, HTTPAddr: a, UDPAddr: "127.0.0.1:1"})
	}
	srv.SetPeers(peers)
	srv.Start()
	return srv
}

type fetched struct {
	resp *httpmsg.Response
	err  error
}

// fetchAsync GETs path from addr on its own connection and delivers the
// whole response (bodies up to 16 MiB) or the error.
func fetchAsync(addr, path string) <-chan fetched {
	out := make(chan fetched, 1)
	go func() {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			out <- fetched{err: err}
			return
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		req := &httpmsg.Request{Method: "GET", Path: path, Header: httpmsg.Header{}}
		if err := req.Write(conn); err != nil {
			out <- fetched{err: err}
			return
		}
		resp, err := httpmsg.ReadResponse(bufio.NewReader(conn), 16<<20)
		out <- fetched{resp, err}
	}()
	return out
}

// fullBody fails t unless f is a 200 carrying exactly want.
func fullBody(t *testing.T, who string, f fetched, want []byte) {
	t.Helper()
	if f.err != nil {
		t.Fatalf("%s: %v", who, f.err)
	}
	if f.resp.StatusCode != httpmsg.StatusOK || !bytes.Equal(f.resp.Body, want) {
		t.Fatalf("%s: status %d, %d bytes, identical=%v", who, f.resp.StatusCode, len(f.resp.Body), bytes.Equal(f.resp.Body, want))
	}
}

// startFill sends a GET for doc to the relay on a fresh connection and
// reads the response header and the first n body bytes, failing t if they
// do not arrive within two seconds.
func startFill(t *testing.T, relay *Server, doc string, want []byte, n int) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn := dialNode(t, relay.Addr())
	br := bufio.NewReader(conn)
	keepAliveGet(t, conn, "GET", doc, nil)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err := httpmsg.ReadResponseHeader(br)
	if err != nil {
		t.Fatalf("no response header while the owner holds the body back: %v", err)
	}
	if resp.StatusCode != httpmsg.StatusOK || resp.Header.Get("Content-Length") != strconv.Itoa(len(want)) {
		t.Fatalf("header: status %d, Content-Length %q", resp.StatusCode, resp.Header.Get("Content-Length"))
	}
	got := make([]byte, n)
	if _, err := io.ReadFull(br, got); err != nil {
		t.Fatalf("first %d body bytes while the owner holds the rest back: %v", n, err)
	}
	if !bytes.Equal(got, want[:n]) {
		t.Fatal("first chunk corrupted")
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	return conn, br
}

// TestCutThroughFirstChunkBeforeFill: a relayed miss reaches its client as
// the fill reads it. The owner sends the header and 16 KiB, then holds the
// rest back; the client already has the header and that chunk. Once the
// owner lets go, the client gets the whole body, the entry is inserted
// before its last byte, and the connection serves the next request.
func TestCutThroughFirstChunkBeforeFill(t *testing.T) {
	leakcheck.Check(t)
	const doc, first = "/docs/remote.bin", 16 << 10
	body := docBytes(doc, 256<<10)
	owner, release, _ := stallPeer(t, body, first, false)
	defer release()
	relay := relayNode(t, nil, []string{owner}, storage.File{Path: doc, Size: int64(len(body)), Owner: 1})

	conn, br := startFill(t, relay, doc, body, first)
	if relay.Cache().Peek(doc) {
		t.Fatal("entry inserted before the fill ended")
	}
	release()
	rest := make([]byte, len(body)-first)
	if _, err := io.ReadFull(br, rest); err != nil || !bytes.Equal(rest, body[first:]) {
		t.Fatalf("rest of the body: %v, identical=%v", err, bytes.Equal(rest, body[first:]))
	}
	if !relay.Cache().Peek(doc) {
		t.Fatal("the body's last byte left before the entry was inserted")
	}
	keepAliveGet(t, conn, "GET", doc, nil)
	again, err := httpmsg.ReadResponse(br, 1<<20)
	fullBody(t, "second request on the connection", fetched{again, err}, body)
	if st := relay.Cache().Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache hits %d, misses %d; want 1 and 1", st.Hits, st.Misses)
	}
}

// TestCutThroughStalledClientDelaysNobody: the filling client never reads,
// so its writer stalls on full socket buffers. A second request for the
// same document, waiting on that fill, is still served in full and the
// entry inserted while the first response is unfinished.
func TestCutThroughStalledClientDelaysNobody(t *testing.T) {
	leakcheck.Check(t)
	const doc = "/docs/big.bin"
	body := docBytes(doc, 8<<20) // well past both sockets' buffers
	owner, release, hits := stallPeer(t, body, 64<<10, false)
	defer release()
	relay := relayNode(t, nil, []string{owner}, storage.File{Path: doc, Size: int64(len(body)), Owner: 1})

	stalled := dialNode(t, relay.Addr())
	if err := stalled.(*net.TCPConn).SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	keepAliveGet(t, stalled, "GET", doc, nil)
	waitFor(t, 5*time.Second, "the fill reaches the owner", func() bool { return hits.Load() == 1 })
	waiter := fetchAsync(relay.Addr(), doc)
	waitFor(t, 5*time.Second, "the second request joins the fill", func() bool {
		return relay.Cache().Stats().SingleflightShared == 1
	})
	release()
	select {
	case f := <-waiter:
		fullBody(t, "waiter", f, body)
	case <-time.After(10 * time.Second):
		t.Fatal("the waiter is held up by the stalled client")
	}
	if !relay.Cache().Peek(doc) {
		t.Fatal("the fill was not inserted")
	}
	if st := relay.Stats(); st.Served != 1 || hits.Load() != 1 {
		t.Fatalf("served %d, owner asked %d times; want only the waiter served, one fill", st.Served, hits.Load())
	}
}

// TestCutThroughSourceDeathMidBody: the only source dies after its header
// and part of the body. The filling client's response is cut short and its
// connection closed, the failure is counted against the client and the
// source, nothing is cached and the dead connection is not pooled.
func TestCutThroughSourceDeathMidBody(t *testing.T) {
	leakcheck.Check(t)
	const doc, first = "/docs/remote.bin", 16 << 10
	body := docBytes(doc, 256<<10)
	owner, release, _ := stallPeer(t, body, first, true)
	defer release()
	relay := relayNode(t, nil, []string{owner}, storage.File{Path: doc, Size: int64(len(body)), Owner: 1})

	_, br := startFill(t, relay, doc, body, first)
	release()
	rest, _ := io.ReadAll(br) // to the close
	if first+len(rest) >= len(body) {
		t.Fatalf("a cut fill reached its client whole (%d bytes)", first+len(rest))
	}
	if relay.Cache().Peek(doc) {
		t.Fatal("a cut fill was cached")
	}
	relay.ups.mu.Lock()
	parked := len(relay.ups.idle[owner])
	relay.ups.mu.Unlock()
	if parked != 0 {
		t.Fatalf("%d connections to the dead source parked", parked)
	}
	if st := relay.Stats(); st.Errors != 1 || st.Drops["write_failed"] != 1 {
		t.Fatalf("errors %d, write_failed %d; want 1 and 1", st.Errors, st.Drops["write_failed"])
	}
	if relay.table.Failures(1) == 0 {
		t.Fatal("the dead source was not marked failed")
	}
}

// TestCutThroughWaiterSurvivesSourceDeath: with two replicas, the primary
// dies mid-body under a fill that a second request waits on. The filling
// client's response is cut short; the waiter, whose bytes were not on the
// wire, fetches again and is served in full by the surviving replica.
func TestCutThroughWaiterSurvivesSourceDeath(t *testing.T) {
	leakcheck.Check(t)
	const doc, first = "/docs/remote.bin", 16 << 10
	body := docBytes(doc, 256<<10)
	dying, release, _ := stallPeer(t, body, first, true)
	defer release()
	survivor, _ := fakePeer(t, fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: close\r\n\r\n", len(body)), body)
	relay := relayNode(t, nil, []string{dying, survivor},
		storage.File{Path: doc, Size: int64(len(body)), Owner: 1, Replicas: []int{1, 2}})

	_, br := startFill(t, relay, doc, body, first)
	waiter := fetchAsync(relay.Addr(), doc)
	waitFor(t, 5*time.Second, "the second request joins the fill", func() bool {
		return relay.Cache().Stats().SingleflightShared == 1
	})
	release()
	rest, _ := io.ReadAll(br)
	if first+len(rest) >= len(body) {
		t.Fatalf("a cut fill reached its client whole (%d bytes)", first+len(rest))
	}
	fullBody(t, "waiter", <-waiter, body)
	if !relay.Cache().Peek(doc) {
		t.Fatal("the survivor's fill was not inserted")
	}
}

// TestCutThroughConditionalAndHEADMisses: a HEAD or conditional-GET miss
// takes the same fill without a client writer and is answered from the
// entry: the HEAD carries the length and no body, the conditional GET earns
// its 304, and both leave the document cached.
func TestCutThroughConditionalAndHEADMisses(t *testing.T) {
	leakcheck.Check(t)
	const doc = "/docs/big.bin"
	relay, owner := startPair(t, nil, storage.File{Path: doc, Size: 256 << 10, Owner: 1})
	body := docBytes(doc, 256<<10)

	conn := dialNode(t, relay.Addr())
	br := bufio.NewReader(conn)
	keepAliveGet(t, conn, "HEAD", doc, nil)
	head, err := httpmsg.ReadResponseHeader(br)
	if err != nil {
		t.Fatal(err)
	}
	if head.StatusCode != httpmsg.StatusOK || head.Header.Get("Content-Length") != strconv.Itoa(len(body)) {
		t.Fatalf("HEAD miss: status %d, Content-Length %q", head.StatusCode, head.Header.Get("Content-Length"))
	}
	if !relay.Cache().Peek(doc) {
		t.Fatal("a HEAD miss did not fill the cache")
	}
	// No body followed the HEAD: the next response parses cleanly.
	keepAliveGet(t, conn, "GET", doc, nil)
	next, err := httpmsg.ReadResponse(br, 1<<20)
	fullBody(t, "GET after HEAD", fetched{next, err}, body)

	relay.Cache().Invalidate(doc)
	fi, err := os.Stat(docFile(owner, doc))
	if err != nil {
		t.Fatal(err)
	}
	cond := getWith(t, relay.Addr(), doc, map[string]string{"If-Modified-Since": httpmsg.FormatHTTPDate(fi.ModTime())})
	if cond.StatusCode != httpmsg.StatusNotModified || len(cond.Body) != 0 {
		t.Fatalf("conditional miss: status %d, %d body bytes; want 304, none", cond.StatusCode, len(cond.Body))
	}
	if !relay.Cache().Peek(doc) {
		t.Fatal("a conditional miss did not fill the cache")
	}
}

// TestCutThroughSmallRelayOneWrite: a 1 KiB relayed miss arrives whole
// with its source's header, so it needs no writer and leaves, header and
// body, in a single write, like a hit.
func TestCutThroughSmallRelayOneWrite(t *testing.T) {
	leakcheck.Check(t)
	const doc = "/docs/small.html"
	relay, _ := startPair(t, nil, storage.File{Path: doc, Size: 1 << 10, Owner: 1})
	conn := &countingConn{}
	rc := newReqConn(relay, conn, 0)
	rc.proto, rc.keepAlive = "HTTP/1.1", true
	req := &httpmsg.Request{Method: "GET", Path: doc, Proto: "HTTP/1.1", Header: httpmsg.Header{}}
	f := relay.facts(doc)
	if st := relay.serveRemoteFile(rc, req, &f, ""); st != httpmsg.StatusOK {
		t.Fatalf("status %d", st)
	}
	rc.flush()
	if conn.writes != 1 {
		t.Errorf("1 KiB relayed miss left in %d writes, want 1", conn.writes)
	}
	resp, err := httpmsg.ReadResponse(bufio.NewReader(&conn.got), 1<<20)
	fullBody(t, "relayed miss", fetched{resp, err}, docBytes(doc, 1<<10))
	if !relay.Cache().Peek(doc) {
		t.Fatal("the relayed miss was not cached")
	}
}
