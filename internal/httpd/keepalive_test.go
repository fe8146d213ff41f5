package httpd

import (
	"bufio"
	"bytes"
	"errors"
	"hash/fnv"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sweb/internal/core"
	"sweb/internal/httpmsg"
	"sweb/internal/storage"
)

// dialNode opens one raw client connection with a test deadline.
func dialNode(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn
}

// keepAliveGet writes one HTTP/1.1 GET on an open connection.
func keepAliveGet(t *testing.T, conn net.Conn, method, path string, hdr map[string]string) {
	t.Helper()
	req := &httpmsg.Request{Method: method, Path: path, Proto: "HTTP/1.1", Header: httpmsg.Header{}}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	if err := req.Write(conn); err != nil {
		t.Fatal(err)
	}
}

// TestKeepAlivePipelining drives several requests down ONE connection —
// including two written back to back before the first response is read —
// and demands every response arrive correctly framed on the same socket.
// The server must count a single accepted connection.
func TestKeepAlivePipelining(t *testing.T) {
	srv, doc := startSoloNode(t, nil)
	conn := dialNode(t, srv.Addr())
	br := bufio.NewReader(conn)

	// Two pipelined requests in one write, then a third after reading.
	keepAliveGet(t, conn, "GET", doc, nil)
	keepAliveGet(t, conn, "GET", doc, nil)
	for i := 0; i < 2; i++ {
		resp, err := httpmsg.ReadResponse(br, 1<<20)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if resp.StatusCode != httpmsg.StatusOK || len(resp.Body) != 1024 {
			t.Fatalf("response %d: status=%d len=%d", i, resp.StatusCode, len(resp.Body))
		}
		if !resp.KeepAlive() {
			t.Fatalf("response %d not keep-alive: Connection=%q", i, resp.Header.Get("Connection"))
		}
	}
	keepAliveGet(t, conn, "GET", doc, nil)
	resp, err := httpmsg.ReadResponse(br, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != httpmsg.StatusOK {
		t.Fatalf("third response status = %d", resp.StatusCode)
	}

	if got := srv.Stats().Accepted; got != 1 {
		t.Fatalf("accepted = %d connections for 3 requests, want 1", got)
	}
	if got := srv.Stats().Served; got != 3 {
		t.Fatalf("served = %d, want 3", got)
	}
}

// TestKeepAliveOffClosesAfterOne: with persistent connections disabled the
// first response must announce Connection: close and the socket must die.
func TestKeepAliveOffClosesAfterOne(t *testing.T) {
	srv, doc := startSoloNode(t, func(c *Config) { c.KeepAliveOff = true })
	conn := dialNode(t, srv.Addr())
	br := bufio.NewReader(conn)
	keepAliveGet(t, conn, "GET", doc, nil)
	resp, err := httpmsg.ReadResponse(br, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if resp.KeepAlive() {
		t.Fatalf("keep-alive granted with KeepAliveOff: Connection=%q", resp.Header.Get("Connection"))
	}
	if _, err := br.Peek(1); err == nil {
		t.Fatal("connection still open after Connection: close response")
	}
}

// TestKeepAliveMaxCapsConnection: the Nth response on a connection closes
// it when KeepAliveMax = N.
func TestKeepAliveMaxCapsConnection(t *testing.T) {
	srv, doc := startSoloNode(t, func(c *Config) { c.KeepAliveMax = 2 })
	conn := dialNode(t, srv.Addr())
	br := bufio.NewReader(conn)
	keepAliveGet(t, conn, "GET", doc, nil)
	first, err := httpmsg.ReadResponse(br, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !first.KeepAlive() {
		t.Fatal("first response should keep the connection")
	}
	keepAliveGet(t, conn, "GET", doc, nil)
	second, err := httpmsg.ReadResponse(br, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if second.KeepAlive() {
		t.Fatal("second response should close a KeepAliveMax=2 connection")
	}
}

// TestHTTP10DefaultStillCloses: a plain HTTP/1.0 request without the
// keep-alive opt-in gets the old one-shot behavior.
func TestHTTP10DefaultStillCloses(t *testing.T) {
	srv, doc := startSoloNode(t, nil)
	conn := dialNode(t, srv.Addr())
	req := &httpmsg.Request{Method: "GET", Path: doc, Header: httpmsg.Header{}}
	if err := req.Write(conn); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := httpmsg.ReadResponse(br, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if resp.KeepAlive() {
		t.Fatal("HTTP/1.0 without opt-in must not keep alive")
	}
	if _, err := br.Peek(1); err == nil {
		t.Fatal("connection still open after HTTP/1.0 response")
	}
}

// TestIdleTimeoutReapsParkedConnections: a keep-alive connection sitting
// idle past IdleTimeout is closed by the server, without a response.
func TestIdleTimeoutReapsParkedConnections(t *testing.T) {
	srv, doc := startSoloNode(t, func(c *Config) { c.IdleTimeout = 100 * time.Millisecond })
	conn := dialNode(t, srv.Addr())
	br := bufio.NewReader(conn)
	keepAliveGet(t, conn, "GET", doc, nil)
	if _, err := httpmsg.ReadResponse(br, 1<<20); err != nil {
		t.Fatal(err)
	}
	// Park past the idle budget; the next read must see EOF, not a 400.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := br.Peek(1); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle connection never reaped")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// countingListener fails every Accept, counting how often the loop asks.
type countingListener struct {
	accepts atomic.Int64
	closed  chan struct{}
}

func (l *countingListener) Accept() (net.Conn, error) {
	l.accepts.Add(1)
	select {
	case <-l.closed:
		return nil, errors.New("listener closed")
	default:
	}
	return nil, errors.New("transient accept failure")
}

func (l *countingListener) Close() error {
	select {
	case <-l.closed:
	default:
		close(l.closed)
	}
	return nil
}

func (l *countingListener) Addr() net.Addr {
	return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0}
}

// TestAcceptLoopBacksOffOnError: a listener returning transient errors
// must NOT be hot-spun. The capped backoff keeps the Accept call count in
// the tens over 150ms; the old loop retried unconditionally and racked up
// hundreds of thousands.
func TestAcceptLoopBacksOffOnError(t *testing.T) {
	srv, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	fake := &countingListener{closed: make(chan struct{})}
	_ = srv.ln.Close() // release the real socket; the loop gets the fake
	srv.ln = fake
	srv.wg.Add(1)
	go srv.acceptLoop()
	time.Sleep(150 * time.Millisecond)
	n := fake.accepts.Load()
	srv.Close()
	if n > 1000 {
		t.Fatalf("accept loop spun %d times in 150ms; backoff is not applied", n)
	}
	if n == 0 {
		t.Fatal("accept loop never ran")
	}
}

// startPairRR boots a two-node cluster with round-robin policy (never
// redirects, so asking the wrong node always exercises the internal fetch
// or relay path). Returns both servers and the path of the node-1 document.
func startPairRR(t *testing.T, mut func(*Config)) (*Server, *Server, string) {
	t.Helper()
	const remoteDoc = "/docs/remote.html"
	a, b := startPair(t, mut,
		storage.File{Path: "/docs/local.html", Size: 2048, Owner: 0},
		storage.File{Path: remoteDoc, Size: 2048, Owner: 1})
	return a, b, remoteDoc
}

// docBytes is a document's test content: pseudo-random bytes seeded by its
// name, so a body sent from the wrong file, or from the wrong place in the
// right one, cannot pass as correct.
func docBytes(name string, size int64) []byte {
	h := fnv.New64a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewPCG(h.Sum64(), uint64(size)))
	body := make([]byte, size)
	for i := range body {
		body[i] = byte(rng.Uint32())
	}
	return body
}

// startPair is startPairRR over the given documents, each written to its
// owner's docroot as docBytes.
func startPair(t *testing.T, mut func(*Config), files ...storage.File) (*Server, *Server) {
	t.Helper()
	st := storage.NewStore(2)
	for _, f := range files {
		st.MustAdd(f)
	}
	var srvs []*Server
	for i := 0; i < 2; i++ {
		cfg := Config{ID: i, DocRoot: t.TempDir(), Store: st, Policy: core.RoundRobin{}}
		if mut != nil {
			mut(&cfg)
		}
		for _, f := range files {
			if f.Owner != i {
				continue
			}
			full := filepath.Join(cfg.DocRoot, filepath.FromSlash(strings.TrimPrefix(f.Path, "/")))
			if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(full, docBytes(f.Path, f.Size), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		srvs = append(srvs, srv)
	}
	peers := []Peer{
		{ID: 0, HTTPAddr: srvs[0].Addr(), UDPAddr: srvs[0].UDPAddr()},
		{ID: 1, HTTPAddr: srvs[1].Addr(), UDPAddr: srvs[1].UDPAddr()},
	}
	for _, srv := range srvs {
		srv.SetPeers(peers)
		srv.Start()
	}
	return srvs[0], srvs[1]
}

// TestRelayedDocumentCarriesLastModified: a document fetched from its
// owner and cached on the relaying node must keep the owner's
// Last-Modified, and an If-Modified-Since revalidation against the relay
// must earn a 304. The old relay dropped the header, leaving zero-ModTime
// cache entries that could never revalidate.
func TestRelayedDocumentCarriesLastModified(t *testing.T) {
	checkNoLeaks(t)
	relay, _, doc := startPairRR(t, nil)

	resp := getWith(t, relay.Addr(), doc, nil)
	if resp.StatusCode != httpmsg.StatusOK {
		t.Fatalf("relayed fetch = %d", resp.StatusCode)
	}
	lm := resp.Header.Get("Last-Modified")
	if lm == "" {
		t.Fatal("relayed response has no Last-Modified")
	}
	again := getWith(t, relay.Addr(), doc, map[string]string{"If-Modified-Since": lm})
	if again.StatusCode != httpmsg.StatusNotModified {
		t.Fatalf("revalidation = %d, want 304", again.StatusCode)
	}
	if len(again.Body) != 0 {
		t.Fatalf("304 carried %d body bytes", len(again.Body))
	}
}

// TestRelayStreamLastModifiedAnd304: the non-materializing relay path
// (cache off) must also preserve Last-Modified and pass an
// If-Modified-Since through to the owner for a relayed 304.
func TestRelayStreamLastModifiedAnd304(t *testing.T) {
	checkNoLeaks(t)
	relay, owner, doc := startPairRR(t, func(c *Config) { c.CacheOff = true })

	resp := getWith(t, relay.Addr(), doc, nil)
	if resp.StatusCode != httpmsg.StatusOK || len(resp.Body) != 2048 {
		t.Fatalf("streamed relay = %d len=%d", resp.StatusCode, len(resp.Body))
	}
	lm := resp.Header.Get("Last-Modified")
	if lm == "" {
		t.Fatal("streamed relay dropped Last-Modified")
	}
	again := getWith(t, relay.Addr(), doc, map[string]string{"If-Modified-Since": lm})
	if again.StatusCode != httpmsg.StatusNotModified {
		t.Fatalf("relayed revalidation = %d, want 304", again.StatusCode)
	}
	if owner.Stats().InternalFetch == 0 {
		t.Fatal("owner never saw the internal fetch")
	}
}

// TestUpstreamPoolReusesConnections: back-to-back relays to the same owner
// must ride one upstream connection — one dial, the rest reused.
func TestUpstreamPoolReusesConnections(t *testing.T) {
	checkNoLeaks(t)
	relay, _, doc := startPairRR(t, func(c *Config) { c.CacheOff = true })
	for i := 0; i < 3; i++ {
		resp := getWith(t, relay.Addr(), doc, nil)
		if resp.StatusCode != httpmsg.StatusOK {
			t.Fatalf("fetch %d = %d", i, resp.StatusCode)
		}
	}
	st := relay.Stats()
	if st.UpstreamDials != 1 {
		t.Fatalf("upstream dials = %d for 3 relays, want 1", st.UpstreamDials)
	}
	if st.UpstreamReused != 2 {
		t.Fatalf("upstream reuses = %d for 3 relays, want 2", st.UpstreamReused)
	}
}

// TestHEADAccountsZeroBodyBytes: a HEAD response promises the full
// Content-Length but sends no body, and the byte accounting must record
// what was sent (nothing) — not the advertised size.
func TestHEADAccountsZeroBodyBytes(t *testing.T) {
	srv, doc := startSoloNode(t, nil)
	if st, _ := get(t, srv.Addr(), doc); st != httpmsg.StatusOK {
		t.Fatalf("warmup = %d", st)
	}
	before := srv.Stats().BytesOut

	conn := dialNode(t, srv.Addr())
	br := bufio.NewReader(conn)
	keepAliveGet(t, conn, "HEAD", doc, nil)
	resp, err := httpmsg.ReadResponseHeader(br)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != httpmsg.StatusOK {
		t.Fatalf("HEAD = %d", resp.StatusCode)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(1024) {
		t.Fatalf("HEAD Content-Length = %q, want 1024", cl)
	}
	// The connection must hold no body bytes: a keep-alive HEAD is followed
	// immediately by the next response, so answer a second request now.
	keepAliveGet(t, conn, "GET", doc, nil)
	next, err := httpmsg.ReadResponse(br, 1<<20)
	if err != nil {
		t.Fatalf("request after HEAD on same connection: %v", err)
	}
	if next.StatusCode != httpmsg.StatusOK || len(next.Body) != 1024 {
		t.Fatalf("post-HEAD GET = %d len=%d", next.StatusCode, len(next.Body))
	}
	if got := srv.Stats().BytesOut - before; got != 1024 {
		t.Fatalf("HEAD+GET accounted %d body bytes, want 1024 (HEAD must log 0)", got)
	}
}

// TestRelayMidStreamOwnerDeath pins the worst relay failure: the owner
// promises a body, sends part of it, and dies — after the relay has
// already forwarded the response header on a keep-alive connection. The
// client must see a hard truncation (never a short body dressed as
// complete), the relay must count the failed write, and the node must keep
// serving fresh connections.
func TestRelayMidStreamOwnerDeath(t *testing.T) {
	checkNoLeaks(t)
	const doc = "/docs/remote.html"
	st := storage.NewStore(2)
	st.MustAdd(storage.File{Path: "/docs/local.html", Size: 1024, Owner: 0})
	st.MustAdd(storage.File{Path: doc, Size: 100000, Owner: 1})

	// The owner is a hand-rolled listener: header + 1% of the promised
	// body, then gone.
	fakeOwner, _ := fakePeer(t, "HTTP/1.1 200 OK\r\nContent-Length: 100000\r\n\r\n", make([]byte, 1000))

	cfg := Config{ID: 0, DocRoot: t.TempDir(), Store: st, Policy: core.RoundRobin{},
		CacheOff: true, FetchAttempts: 1}
	full := filepath.Join(cfg.DocRoot, "docs", "local.html")
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(full, make([]byte, 1024), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.SetPeers([]Peer{
		{ID: 0, HTTPAddr: srv.Addr(), UDPAddr: srv.UDPAddr()},
		{ID: 1, HTTPAddr: fakeOwner, UDPAddr: "127.0.0.1:1"},
	})
	srv.Start()

	conn := dialNode(t, srv.Addr())
	br := bufio.NewReader(conn)
	keepAliveGet(t, conn, "GET", doc, nil)
	if _, err := httpmsg.ReadResponse(br, 1<<20); err == nil {
		t.Fatal("truncated relay read as a complete response")
	}
	if srv.Stats().Drops["write_failed"] == 0 {
		t.Fatal("relay did not count the mid-stream failure")
	}
	// The node survives: a fresh connection serves the local document.
	if status, body := get(t, srv.Addr(), "/docs/local.html"); status != httpmsg.StatusOK || len(body) != 1024 {
		t.Fatalf("post-failure fetch = %d len=%d", status, len(body))
	}
}

// TestStreamResponseChunked drives the unknown-length HTTP/1.1 path
// directly: the body must arrive chunked, byte-identical, on a connection
// still marked keep-alive.
func TestStreamResponseChunked(t *testing.T) {
	srv, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, server := net.Pipe()
	defer client.Close()
	body := bytes.Repeat([]byte("chunk-me-"), 12000) // > one 32K copy buffer
	rc := newReqConn(srv, server, 0)
	rc.proto, rc.keepAlive = "HTTP/1.1", true
	req := &httpmsg.Request{Method: "GET", Path: "/stream.bin", Proto: "HTTP/1.1", Header: httpmsg.Header{}}
	go func() {
		defer server.Close()
		srv.streamResponse(rc, req, -1, bytes.NewReader(body), time.Time{})
		rc.flush()
	}()
	resp, err := httpmsg.ReadResponse(bufio.NewReader(client), 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Chunked() {
		t.Fatalf("unknown-length 1.1 response not chunked: %+v", resp.Header)
	}
	if !bytes.Equal(resp.Body, body) {
		t.Fatalf("chunked body corrupted: %d bytes, want %d", len(resp.Body), len(body))
	}
	if !resp.KeepAlive() {
		t.Fatal("chunked response should preserve keep-alive")
	}
}

// TestStreamResponseUnknownLengthHTTP10 falls back to an EOF-delimited
// body and must mark the connection close.
func TestStreamResponseUnknownLengthHTTP10(t *testing.T) {
	srv, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, server := net.Pipe()
	defer client.Close()
	body := []byte("short dynamic body")
	rc := newReqConn(srv, server, 0)
	rc.keepAlive = true
	req := &httpmsg.Request{Method: "GET", Path: "/gen.txt", Header: httpmsg.Header{}}
	go func() {
		defer server.Close()
		srv.streamResponse(rc, req, -1, bytes.NewReader(body), time.Time{})
		rc.flush()
	}()
	resp, err := httpmsg.ReadResponse(bufio.NewReader(client), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if resp.KeepAlive() {
		t.Fatal("EOF-delimited body cannot keep the connection")
	}
	if !bytes.Equal(resp.Body, body) {
		t.Fatalf("body = %q", resp.Body)
	}
}
