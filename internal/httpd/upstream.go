package httpd

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"sweb/internal/cache"
	"sweb/internal/httpmsg"
	"sweb/internal/retry"
	"sweb/internal/trace"
)

// upstreamIdlePerPeer bounds how many idle internal-fetch connections are
// kept per peer. A relay burst fans out over at most this many sockets and
// reuses them; beyond that, extra connections are spent after one exchange.
const upstreamIdlePerPeer = 4

// upstream is one reusable connection to a peer's HTTP listener, with the
// buffered reader that parses its responses.
type upstream struct {
	conn net.Conn
	br   *bufio.Reader
}

func (u *upstream) Close() { _ = u.conn.Close() }

// upstreamPool keeps idle internal-fetch connections per peer address, so
// a relay burst does not pay a TCP dial per request ("NFS cross-mount"
// traffic rides persistent connections like client traffic does).
type upstreamPool struct {
	mu     sync.Mutex
	idle   map[string][]*upstream
	cap    int
	closed bool
}

func newUpstreamPool(perPeer int) *upstreamPool {
	if perPeer <= 0 {
		perPeer = upstreamIdlePerPeer
	}
	return &upstreamPool{idle: make(map[string][]*upstream), cap: perPeer}
}

// get pops an idle connection to addr, nil when none is parked.
func (p *upstreamPool) get(addr string) *upstream {
	p.mu.Lock()
	defer p.mu.Unlock()
	list := p.idle[addr]
	if len(list) == 0 {
		return nil
	}
	u := list[len(list)-1]
	p.idle[addr] = list[:len(list)-1]
	return u
}

// put parks a connection for reuse, closing it instead when the per-peer
// cap is reached or the pool is shut down.
func (p *upstreamPool) put(addr string, u *upstream) {
	p.mu.Lock()
	if p.closed || len(p.idle[addr]) >= p.cap {
		p.mu.Unlock()
		u.Close()
		return
	}
	p.idle[addr] = append(p.idle[addr], u)
	p.mu.Unlock()
}

// closeAll closes every parked connection and refuses new parks.
func (p *upstreamPool) closeAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for addr, list := range p.idle {
		for _, u := range list {
			u.Close()
		}
		delete(p.idle, addr)
	}
}

// internalRequest builds the node-to-node fetch request: HTTP/1.1 with
// keep-alive so the owner leaves the connection open, the internal marker
// so it is served directly, and optionally the client's If-Modified-Since
// (streamed relays let the owner answer 304) and the originating trace.
func (s *Server) internalRequest(method, path, ims string, tctx trace.TraceID) *httpmsg.Request {
	req := &httpmsg.Request{Method: method, Path: path, Proto: "HTTP/1.1", Header: httpmsg.Header{}}
	req.Header.Set(internalHeader, "1")
	req.Header.Set("Connection", "keep-alive")
	if ims != "" {
		req.Header.Set("If-Modified-Since", ims)
	}
	if tctx != "" {
		req.Header.Set(traceHeader, string(tctx))
	}
	return req
}

// openPeerStream sends one internal request and returns the connection
// with the response header parsed and the body still unread on u.br. A
// pooled connection is tried first; if the exchange fails on it (the
// peer may have idle-timed it out), one fresh dial retries before the
// error propagates.
func (s *Server) openPeerStream(peer Peer, req *httpmsg.Request) (*upstream, *httpmsg.Response, error) {
	if u := s.ups.get(peer.HTTPAddr); u != nil {
		if resp, err := roundTripUpstream(u, req); err == nil {
			s.upstreamReused.Add(1)
			return u, resp, nil
		}
		u.Close() // stale pooled connection; fall through to a fresh dial
	}
	if delay := s.cfg.DialDelay; delay != nil {
		if d := delay(); d > 0 {
			time.Sleep(d)
		}
	}
	c, err := net.DialTimeout("tcp", peer.HTTPAddr, s.cfg.FetchTimeout)
	if err != nil {
		return nil, nil, fmt.Errorf("dial owner %d: %w", peer.ID, err)
	}
	s.upstreamDials.Add(1)
	u := &upstream{conn: c, br: bufio.NewReader(c)}
	resp, err := roundTripUpstream(u, req)
	if err != nil {
		u.Close()
		return nil, nil, fmt.Errorf("owner %d: %w", peer.ID, err)
	}
	return u, resp, nil
}

// roundTripUpstream writes the request and parses the response header. The
// deadline covers the whole exchange including the body reads that follow.
func roundTripUpstream(u *upstream, req *httpmsg.Request) (*httpmsg.Response, error) {
	_ = u.conn.SetDeadline(time.Now().Add(connTimeout))
	if err := req.Write(u.conn); err != nil {
		return nil, err
	}
	return httpmsg.ReadResponseHeader(u.br)
}

// fetchSource is one replica candidate for an internal fetch: the node id
// the health view tracks and the peer address to dial.
type fetchSource struct {
	node int
	peer Peer
}

// fetchPolicy builds the retry budget for an internal fetch over the
// given failover list: the per-source attempt count scales with the list
// so every replica gets its full share of tries (R=1 reduces to the
// pre-replication policy exactly), while the time budget stays fixed.
func (s *Server) fetchPolicy(sources int) retry.Policy {
	return retry.Policy{
		MaxAttempts: s.cfg.FetchAttempts * sources,
		BaseDelay:   s.cfg.FetchBackoff,
		MaxDelay:    2 * time.Second,
		Jitter:      0.2,
		Budget:      connTimeout / 2,
	}
}

// openSource is the one way a relay opens a document at a replica. It walks
// the failover list under the node's retry budget — attempt k asks
// sources[(k-1) mod len] — until a source answers ireq with a 200 whose
// Content-Length is exactly the want bytes the manifest promises, or, to a
// conditional request, with a 304. The length is checked before anything is
// sized from it, so a confused or hostile peer can size neither a buffer nor
// a client's framing, and a body without one (no SWEB owner sends a
// document that way) is refused outright. A source that cannot be reached,
// or answers anything else, is marked failed in the loadd health view and
// its connection is spent. The passing source's connection comes back with
// the body unread on u.br; crediting the source is the caller's, once its
// transfer has done what it counts as success.
func (s *Server) openSource(sources []fetchSource, ireq *httpmsg.Request, want int64) (*upstream, *httpmsg.Response, fetchSource, error) {
	var u *upstream
	var resp *httpmsg.Response
	var src fetchSource
	err := s.fetchPolicy(len(sources)).Do(s.closed, func(attempt int) error {
		cand := sources[(attempt-1)%len(sources)]
		uu, r, err := s.openPeerStream(cand.peer, ireq)
		if err == nil {
			if err = acceptSource(r, ireq, want); err != nil {
				uu.Close()
			}
		}
		if err != nil {
			s.table.MarkFailure(cand.node)
			return fmt.Errorf("replica %d: %w", cand.node, err)
		}
		u, resp, src = uu, r, cand
		return nil
	})
	return u, resp, src, err
}

// acceptSource is openSource's check of one source's response header.
func acceptSource(r *httpmsg.Response, ireq *httpmsg.Request, want int64) error {
	if r.StatusCode == httpmsg.StatusNotModified && ireq.Header.Get("If-Modified-Since") != "" {
		return nil
	}
	if r.StatusCode != httpmsg.StatusOK {
		return fmt.Errorf("returned %d", r.StatusCode)
	}
	cl := r.Header.Get("Content-Length")
	if n, err := strconv.ParseInt(strings.TrimSpace(cl), 10, 64); err != nil || n != want {
		return fmt.Errorf("Content-Length %q, manifest says %d", cl, want)
	}
	return nil
}

// credit records a source that delivered: its failure streak clears and
// the per-source fetch counter names it.
func (s *Server) credit(src fetchSource, path string) {
	s.table.MarkSuccess(src.node)
	s.obs.ReplicaFetch(path, src.node)
}

// park returns a source connection whose response was consumed to its end
// to the pool, or closes it when the source asked to close.
func (s *Server) park(src fetchSource, u *upstream, resp *httpmsg.Response) {
	if resp.KeepAlive() {
		s.ups.put(src.peer.HTTPAddr, u)
	} else {
		u.Close()
	}
}

// errBodyCut marks a fill whose source passed openSource and then stopped
// short of the body it announced. Nothing was inserted; a caller whose
// client has nothing on the wire yet fetches again (refill).
var errBodyCut = errors.New("source died mid-body")

// fill is the cache's backing read for a relayed document, the live form of
// simsrv.streamFile's pump: the body of the first source openSource passes
// is read into a cache buffer at the source's pace, and the entry, with the
// source's Last-Modified, is returned for insertion after its last byte.
// Given a client writer (the filling request is a plain GET), fill hands it
// each range as soon as it is read — first whatever body arrived with the
// source's header, then every later read — and never waits on it, so the
// client's pace holds up neither the fill nor the upstream connection's
// return to the pool. The last byte is the filling handler's to hand over,
// once the entry is inserted (serveRemoteFile). A body that arrives whole
// with its header needs no writer: it is answered from the entry like a
// hit. A source that dies mid-body is marked failed, its connection spent,
// and the fill ends with errBodyCut. Once a writer has started, the
// buffer's pin belongs to the filling handler, which releases it after
// joining the writer, success or not; otherwise fill releases it itself on
// failure, as Cache.Fetch asks.
func (s *Server) fill(sources []fetchSource, path string, want int64, tctx trace.TraceID, cw *clientWriter) (cache.Entry, error) {
	s.internalFetch.Add(1)
	u, resp, src, err := s.openSource(sources, s.internalRequest("GET", path, "", tctx), want)
	if err != nil {
		return cache.Entry{}, err
	}
	ent := s.cache.Alloc(want)
	ent.Path, ent.ModTime = path, lastModified(resp.Header)
	n := 0
	if u.br.Buffered() > 0 {
		n, _ = u.br.Read(ent.Body) // what came with the header: a copy, no read(2)
	}
	if cw != nil && n < len(ent.Body) {
		cw.start(ent, n)
	}
	for n < len(ent.Body) && err == nil {
		var k int
		k, err = u.br.Read(ent.Body[n:])
		n += k
		cw.publish(min(n, len(ent.Body)-1))
	}
	if n < len(ent.Body) {
		u.Close()
		s.table.MarkFailure(src.node)
		if !cw.abort() {
			s.cache.Release(ent)
		}
		return cache.Entry{}, fmt.Errorf("%w: replica %d: %v", errBodyCut, src.node, err)
	}
	s.park(src, u, resp)
	s.credit(src, path)
	return ent, nil
}

// refill runs fetch — a fill, or a wait on another request's — again while
// it fails with errBodyCut and cw's client has nothing on the wire, at most
// once per source: a single node death never turns a replicated document
// into a failure for anyone whose bytes were not already out. The dead
// source fails its next dial at once and the failover walks past it.
func refill(sources []fetchSource, cw *clientWriter, fetch func() (cache.Entry, error)) (cache.Entry, error) {
	for again := 0; ; again++ {
		ent, err := fetch()
		if !errors.Is(err, errBodyCut) || cw.running() || again == len(sources) {
			return ent, err
		}
	}
}

// clientWriter is the client half of a cut-through fill: a goroutine that
// writes the filling request's response out of the fill buffer as far as
// the fill has published. It shares only that buffer and the filled mark
// with the fill, so a slow, stalled or failed client never holds up the
// fill, the singleflight waiters, the upstream connection or the insert; a
// failed write spends the client connection and nothing else. The filling
// handler joins it (wait) once Cache.Fetch has returned, before anything
// else touches the connection.
type clientWriter struct {
	rc   *reqConn
	req  *httpmsg.Request
	ent  cache.Entry   // the fill buffer, from start on
	done chan struct{} // closed when it returns; nil until start

	mu     sync.Mutex
	more   sync.Cond // signalled when filled grows or the fill is cut
	filled int
	cut    bool
}

// start launches the writer over ent, of which filled bytes are read.
func (cw *clientWriter) start(ent cache.Entry, filled int) {
	cw.ent, cw.filled = ent, filled
	cw.more.L = &cw.mu
	cw.done = make(chan struct{})
	go cw.run()
}

// running reports whether this request's fill started a writer, i.e.
// whether its client has been promised the body.
func (cw *clientWriter) running() bool { return cw != nil && cw.done != nil }

// publish lets the writer send the body up to filled, and yields to it: on
// a single P a fill whose reads never block would otherwise keep the
// writer off the CPU until the last byte, which is store-and-forward
// again. A nil writer ignores it.
func (cw *clientWriter) publish(filled int) {
	if cw == nil {
		return
	}
	cw.mu.Lock()
	cw.filled = filled
	cw.mu.Unlock()
	cw.more.Signal()
	runtime.Gosched()
}

// abort tells a running writer that the body stops short, and reports
// whether there was one.
func (cw *clientWriter) abort() bool {
	if !cw.running() {
		return false
	}
	cw.mu.Lock()
	cw.cut = true
	cw.mu.Unlock()
	cw.more.Signal()
	return true
}

// wait joins the writer.
func (cw *clientWriter) wait() { <-cw.done }

// run writes the 200 header and the body range by range. A cut fill or a
// failed write spends the connection: the client sees a short body against
// its Content-Length, exactly like a streamed relay whose source died.
func (cw *clientWriter) run() {
	rc, body := cw.rc, cw.ent.Body
	defer close(cw.done)
	if !rc.document(cw.req, int64(len(body)), cw.ent.ModTime) {
		return
	}
	for sent := 0; sent < len(body); {
		filled, ok := cw.next(sent)
		if !ok {
			rc.fail()
			return
		}
		if !rc.write(body[sent:filled]) {
			return
		}
		sent = filled
	}
}

// next blocks until the fill has published past sent and returns how far,
// or false once the fill is cut or a flush fails. Before it sleeps it
// flushes what was handed over, but never the header alone: the first write
// to the client carries the first chunk, the instant the simulator stamps
// as TTFB.
func (cw *clientWriter) next(sent int) (int, bool) {
	cw.mu.Lock()
	caughtUp := cw.filled == sent && !cw.cut
	cw.mu.Unlock()
	if caughtUp && sent > 0 && cw.rc.bw.Flush() != nil {
		return 0, false
	}
	cw.mu.Lock()
	defer cw.mu.Unlock()
	for cw.filled == sent && !cw.cut {
		cw.more.Wait()
	}
	return cw.filled, !cw.cut
}

// relayStream pipes a document the cache cannot hold (cache off, or bigger
// than the whole cache) from a replica straight to the client without
// materializing it: openSource picks the
// source, then the body is copied socket-to-socket through a pooled buffer.
// The client's If-Modified-Since rides along, so the source may answer 304.
// Retries apply only while nothing has reached the client; once the header
// is on the wire a dying source can only truncate the transfer (the client
// sees the short body against Content-Length, and both connections are
// spent).
func (s *Server) relayStream(rc *reqConn, req *httpmsg.Request, sources []fetchSource, size int64, tctx trace.TraceID) int {
	s.internalFetch.Add(1)
	ireq := s.internalRequest(req.Method, req.Path, req.Header.Get("If-Modified-Since"), tctx)
	u, resp, src, err := s.openSource(sources, ireq, size)
	if err != nil {
		return s.degrade503(rc)
	}
	s.credit(src, req.Path)

	if resp.StatusCode == httpmsg.StatusNotModified {
		s.park(src, u, resp) // a 304 carries no body; the conn is clean
		return notModified(rc, lastModified(resp.Header))
	}

	status := s.streamResponse(rc, req, size, io.LimitReader(u.br, size), lastModified(resp.Header))
	// The connection survives for reuse only when the owner's body was
	// consumed exactly: a HEAD left nothing on the wire, a completed transfer
	// drained its LimitReader. Everything else is mid-body.
	if req.Method == "HEAD" || status != 0 {
		s.park(src, u, resp)
	} else {
		u.Close()
	}
	return status
}

// lastModified parses an upstream Last-Modified header; zero when absent
// or unparseable.
func lastModified(h httpmsg.Header) time.Time {
	if lm := h.Get("Last-Modified"); lm != "" {
		if t, err := httpmsg.ParseHTTPDate(lm); err == nil {
			return t
		}
	}
	return time.Time{}
}
