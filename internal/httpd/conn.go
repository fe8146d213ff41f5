package httpd

import (
	"bufio"
	"io"
	"net"
	"os"
	"time"

	"sweb/internal/flight"
	"sweb/internal/httpmsg"
	"sweb/internal/nodeobs"
)

// writeMeter wraps the client socket on the write side so the serve loop
// can measure time-to-first-byte and per-response byte counts without the
// fulfillment paths knowing: the instant the first byte of a response
// reaches the wire is recorded regardless of which path (simple, stream,
// chunked, sendfile) produced it. Only the handler goroutine writes, so the
// fields need no lock.
type writeMeter struct {
	net.Conn
	firstWrite time.Time
	written    int64
}

func (w *writeMeter) Write(p []byte) (int, error) {
	if w.firstWrite.IsZero() && len(p) > 0 {
		w.firstWrite = time.Now()
	}
	n, err := w.Conn.Write(p)
	w.written += int64(n)
	return n, err
}

// sendFile writes the next n bytes of f to the connection, counted and
// stamped like Write. A socket with its own io.ReaderFrom (*net.TCPConn)
// takes them by sendfile(2), straight from the page cache with no copy
// through user space; any other connection gets them through the pooled
// copy buffer. A file shorter than n is io.EOF, as with CopyBodyN.
func (w *writeMeter) sendFile(f *os.File, n int64) (int64, error) {
	rf, ok := w.Conn.(io.ReaderFrom)
	if !ok {
		return httpmsg.CopyBodyN(w, f, n)
	}
	if w.firstWrite.IsZero() && n > 0 {
		w.firstWrite = time.Now()
	}
	sent, err := rf.ReadFrom(io.LimitReader(f, n))
	w.written += sent
	if err == nil && sent < n {
		err = io.EOF
	}
	return sent, err
}

// reset arms the meter for the next request on the connection.
func (w *writeMeter) reset() {
	w.firstWrite = time.Time{}
	w.written = 0
}

// reqConn is one client connection's serving state: the buffered reader
// requests are parsed from, the protocol version the current response must
// echo, and the keep-alive decision the serve loop made for it. The
// fulfillment paths write responses through it so every response carries a
// truthful Connection header.
type reqConn struct {
	s     *Server
	c     net.Conn // the metered connection responses are written to
	meter *writeMeter
	id    int64 // tracked connection id, for flight records
	br    *bufio.Reader
	// req is the connection's one request value, refilled in place for each
	// request the loop reads; nothing may hold it past the end of handle.
	req       httpmsg.Request
	proto     string // response protocol version, echoing the request
	keepAlive bool   // whether the connection survives the current response
	served    int    // requests answered on this connection so far
	// bw carries every response to c, header and body, for the life of the
	// connection. The body paths leave a response's last bytes in it; the
	// serve loop's flush sends them once the response is accounted for.
	bw *bufio.Writer
	// broken marks a response that already failed (fail, or simple's
	// error): its connection closes without flushing what is left.
	broken bool
}

// newReqConn wraps an accepted connection: reads are buffered off the raw
// socket, writes go through the meter and one buffered writer that lives as
// long as the connection does.
func newReqConn(s *Server, c net.Conn, id int64) *reqConn {
	w := &writeMeter{Conn: c}
	return &reqConn{s: s, c: w, meter: w, id: id, br: bufio.NewReader(c), bw: bufio.NewWriter(w), proto: "HTTP/1.0"}
}

// simple writes a complete small response (errors, redirects, 304s),
// stamped with the serve loop's keep-alive decision. h carries whichever
// optional fields the response needs (nil for none); the protocol, status,
// Connection and Content-Length are filled in here, and Content-Type
// defaults to text/html. A failed write spends the connection.
func (rc *reqConn) simple(code int, h *httpmsg.ResponseHead, body []byte) error {
	var head httpmsg.ResponseHead
	if h != nil {
		head = *h
	}
	head.Proto, head.Code, head.KeepAlive = rc.proto, code, rc.keepAlive
	head.ContentLength = int64(len(body))
	if head.ContentType == "" {
		head.ContentType = "text/html"
	}
	err := head.Write(rc.bw)
	if err == nil {
		_, err = rc.writeLast(body)
	}
	if err != nil {
		rc.keepAlive, rc.broken = false, true
	}
	return err
}

// holdBack is how many of a body's last bytes the body paths leave in the
// connection's buffer: enough that no body puts its last byte on the wire
// before the serve loop's flush, and at most half the buffer, so a body
// that outgrows it still goes to the socket in large writes.
func (rc *reqConn) holdBack(n int64) int64 { return min(n, int64(rc.bw.Size()/2)) }

// writeLast hands the final part of a body to the connection's buffer,
// keeping holdBack of it there for the serve loop's flush.
func (rc *reqConn) writeLast(p []byte) (int, error) {
	cut := len(p) - int(rc.holdBack(int64(len(p))))
	n, err := rc.bw.Write(p[:cut])
	if err == nil {
		var m int
		m, err = rc.bw.Write(p[cut:])
		n += m
	}
	return n, err
}

// fail records a mid-response write failure. The response framing is now
// indeterminate, so the connection cannot carry another request.
func (rc *reqConn) fail() int {
	rc.s.errors.Add(1)
	rc.s.drop("write_failed")
	rc.keepAlive, rc.broken = false, true
	return 0
}

// pending is how much of the current response waits in the buffer for the
// serve loop's flush; nothing of a response that already failed.
func (rc *reqConn) pending() int64 {
	if rc.broken {
		return 0
	}
	return int64(rc.bw.Buffered())
}

// flush sends what the current response left in the buffer: the serve
// loop's one flush per response, made after the response is accounted for
// (Observe, counters, access log, trace, the load and connection gauges),
// so a client that has read a response to its end finds the node's books
// already closed on it. The outcome was fixed when its last byte reached
// the buffer; a failure here is the connection's, not a second outcome, so
// it counts an error and the connection closes, as a peer's reset after a
// successful write(2) would. A response that already failed closes
// unflushed. flush reports whether the connection is still usable.
func (rc *reqConn) flush() bool {
	if rc.broken {
		return false
	}
	if err := rc.bw.Flush(); err != nil {
		rc.s.errors.Add(1)
		rc.keepAlive, rc.broken = false, true
		return false
	}
	return true
}

// isDraining reports whether graceful shutdown has begun; the serve loop
// stops renewing keep-alive from that point.
func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// serveConn runs the persistent-connection serve loop: park in an idle
// read between requests, then give each request its own read and write
// budgets. This replaces the old one-request-per-connection handle with
// its single whole-connection deadline — a keep-alive client now pays the
// TCP handshake once, which is exactly the saving the paper's t_redirection
// term wants after a 302. Deadlines stay on the raw socket; responses go
// through the write meter so every request leaves a flight record with an
// honest time-to-first-byte. Each response is flushed only after handle has
// accounted for it and the request has left reqActive; the connection's
// last response is left buffered for the caller, which closes the
// connection's own books first (serve).
func (s *Server) serveConn(rc *reqConn, ci *connInfo) {
	c := rc.c
	for {
		// Idle wait: the peer may keep the connection open up to
		// IdleTimeout between requests. Pipelined bytes already buffered
		// make the peek free.
		_ = c.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		if _, err := rc.br.Peek(1); err != nil {
			// Clean close, idle timeout, or reset between requests:
			// nothing was promised, nothing to answer. A timeout on a
			// live server is the idle reaper doing its job.
			if ne, ok := err.(net.Error); ok && ne.Timeout() && !s.isDraining() {
				s.idleReaped.Add(1)
			}
			return
		}
		rc.meter.reset()
		t0 := time.Now()
		_ = c.SetReadDeadline(t0.Add(connTimeout))
		req := &rc.req
		if err := httpmsg.ReadRequestInto(rc.br, req); err != nil {
			rc.keepAlive = false
			s.errors.Add(1)
			s.badRequests.Add(1)
			s.drop("bad_request")
			_ = c.SetWriteDeadline(time.Now().Add(connTimeout))
			_ = rc.simple(httpmsg.StatusBadRequest, nil,
				httpmsg.ErrorBody(httpmsg.StatusBadRequest, err.Error()))
			s.logAccess(c, nil, httpmsg.StatusBadRequest, -1)
			o := nodeobs.Outcome{Record: flight.Record{Path: "(unparsed)", Status: httpmsg.StatusBadRequest}}
			s.stamp(rc, &o, t0, time.Now())
			s.obs.Observe(o)
			return
		}
		rc.served++
		ci.served.Add(1)
		rc.proto = "HTTP/1.0"
		if req.Proto == "HTTP/1.1" {
			rc.proto = "HTTP/1.1"
		}
		rc.keepAlive = !s.cfg.KeepAliveOff && req.KeepAlive() &&
			(s.cfg.KeepAliveMax <= 0 || rc.served < s.cfg.KeepAliveMax) &&
			!s.isDraining()
		_ = c.SetWriteDeadline(time.Now().Add(connTimeout))
		s.reqActive.Add(1)
		ci.active.Store(true)
		s.handle(rc, req, t0)
		ci.active.Store(false)
		s.reqActive.Add(-1)
		if !rc.keepAlive || s.isDraining() || !rc.flush() {
			return
		}
	}
}

// serve runs one accepted connection to its end. Its books close — the
// requests-per-connection histogram, the conn table, the inflight gauge —
// before its last response is flushed, so the client reading that response
// to its end (or to the close) finds them closed. The connection is
// untracked by then, so the hard-stop Close cannot cut that flush; the
// write deadline bounds it instead, and Close's wait covers it.
func (s *Server) serve(conn net.Conn) {
	ci := s.trackConn(conn)
	rc := newReqConn(s, conn, ci.id)
	s.serveConn(rc, ci)
	// Requests-per-connection, observed once at connection end: the
	// keep-alive amortization persistent connections buy.
	s.kaServed.Observe(float64(rc.served))
	s.untrackConn(conn)
	s.inflight.Add(-1)
	rc.flush()
	conn.Close()
}
