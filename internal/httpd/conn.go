package httpd

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"os"
	"time"

	"sweb/internal/accesslog"
	"sweb/internal/cache"
	"sweb/internal/core"
	"sweb/internal/flight"
	"sweb/internal/httpmsg"
	"sweb/internal/nodeobs"
	"sweb/internal/storage"
)

// writeMeter wraps the client socket on the write side and counts the bytes
// that reach it, whichever way they leave: the buffered writer's writes or
// sendFile. Only the goroutine writing the response touches it, so the
// count needs no lock.
type writeMeter struct {
	net.Conn
	written int64
}

func (w *writeMeter) Write(p []byte) (int, error) {
	n, err := w.Conn.Write(p)
	w.written += int64(n)
	return n, err
}

// sendFile writes the next n bytes of f to the connection, counted like
// Write. A socket with its own io.ReaderFrom (*net.TCPConn) takes them by
// sendfile(2), straight from the page cache with no copy through user
// space; any other connection gets them through the pooled copy buffer. A
// file shorter than n is io.EOF, as with CopyBodyN.
func (w *writeMeter) sendFile(f *os.File, n int64) (int64, error) {
	rf, ok := w.Conn.(io.ReaderFrom)
	if !ok {
		return httpmsg.CopyBodyN(w, f, n)
	}
	sent, err := rf.ReadFrom(io.LimitReader(f, n))
	w.written += sent
	if err == nil && sent < n {
		err = io.EOF
	}
	return sent, err
}

// answer is what the sink records about the response in progress: what
// the accounting step closes its books from.
type answer struct {
	status  int       // the code its head carried; 0 until a head is encoded
	length  int64     // the body length its head announced
	body    int64     // body bytes handed to the connection so far
	at      time.Time // when its head was encoded: the response's first byte
	done    time.Time // when it was complete; zero until stamped
	failed  bool      // a write failed: the connection closes unflushed
	message bool      // the body is a note (reply), not a document
	fault   bool      // an error answer (refuse)
	cause   string    // an error answer's drop cause, "" for none
}

// reqConn is one client connection's serving state: the buffered reader
// requests are parsed from, the protocol version the current response must
// echo, the keep-alive decision the serve loop made for it, and the one
// sink every response leaves through. The fulfillment paths decide what to
// send; head, write, copy and reply decide how it leaves and record it in
// ans for the accounting step. A serve goroutine owns one for its whole
// life and rebinds it to each connection it is handed (reset); what is
// not per connection — the buffers, the request's header map, the broker's
// scratch and the bound validators — carries over.
type reqConn struct {
	s     *Server
	meter *writeMeter // the client connection, metered
	// info is the connection's row in the conn table: its id (for flight
	// records), when it opened, and the counters the table reads.
	info connInfo
	br   *bufio.Reader
	// req is the connection's one request value, refilled in place for each
	// request the loop reads; nothing may hold it past the end of handle.
	req       httpmsg.Request
	proto     string // response protocol version, echoing the request
	keepAlive bool   // whether the connection survives the current response
	served    int    // requests answered on this connection so far
	ans       answer // the current response, as the sink saw it
	// bw carries every response to c, header and body, for the life of the
	// connection. The body paths leave a response's last bytes in it; the
	// serve loop's flush sends them once the response is accounted for.
	bw *bufio.Writer

	// now is the connection's latest clock reading: its accept, then each
	// response's done instant, which the next idle wait is armed from.
	now time.Time
	// rdl and wdl are the read and write deadlines armed on the socket,
	// zero before the first (armRead, armWrite).
	rdl, wdl time.Time
	// loads and cands are the broker's scratch, rewritten for each
	// request: the load snapshot and the decision's cost table. A flight
	// record copies the table, so nothing kept outlives the request.
	loads []core.NodeLoad
	cands []core.CostBreakdown
	// checked is the document the request in hand validates a cached copy
	// against; ownedCheck and relayedCheck are its two validators, bound
	// once (check).
	checked                  storage.File
	ownedCheck, relayedCheck func(cache.Entry) bool
}

// newReqConn makes a connection's serving state, bound to c under id
// (reset): reads are buffered off the raw socket, writes go through the
// meter and one buffered writer.
func newReqConn(s *Server, c net.Conn, id int64) *reqConn {
	rc := &reqConn{s: s, meter: &writeMeter{}, br: bufio.NewReader(nil)}
	rc.bw = bufio.NewWriter(rc.meter)
	rc.ownedCheck, rc.relayedCheck = rc.ownedFresh, rc.relayedFresh
	rc.reset(c, id)
	return rc
}

// reset binds rc to the connection c, tracked under id and opened now,
// as if rc were new: the buffers drop whatever the last connection left
// in them, and every per-connection field starts over. The armed
// deadlines must too: a deadline rc believed armed on the last socket is
// not armed on this one, and rearm would never arm it.
func (rc *reqConn) reset(c net.Conn, id int64) {
	rc.meter.Conn, rc.meter.written = c, 0
	rc.br.Reset(c)
	rc.bw.Reset(rc.meter)
	rc.info.id, rc.info.opened = id, time.Now()
	rc.info.served.Store(0)
	rc.info.active.Store(false)
	rc.proto, rc.keepAlive, rc.served, rc.ans = "HTTP/1.0", false, 0, answer{}
	rc.now, rc.rdl, rc.wdl = rc.info.opened, time.Time{}, time.Time{}
	rc.checked = storage.File{}
}

// deadlineSlack bounds how much later than its span a deadline may fire:
// one span/deadlineSlack. Within that slack an armed deadline stands, so a
// keep-alive stream re-arms a socket deadline once per span/8 of wall
// time, not once per request.
const deadlineSlack = 8

// rearm decides whether the deadline *armed must move for a wait of span
// from now: it stands while it fires no earlier than now+span and no
// later than 9/8 of span after now; otherwise it becomes now+9/8·span and
// rearm reports true. A deadline armed later than the window, say for a
// longer wait that ended early, is pulled in the same way.
func rearm(armed *time.Time, now time.Time, span time.Duration) bool {
	lo := now.Add(span)
	hi := lo.Add(span / deadlineSlack)
	if armed.Before(lo) || armed.After(hi) {
		*armed = hi
		return true
	}
	return false
}

// armRead bounds the next read wait to span from now (rearm).
func (rc *reqConn) armRead(now time.Time, span time.Duration) {
	if rearm(&rc.rdl, now, span) {
		_ = rc.meter.SetReadDeadline(rc.rdl)
	}
}

// armWrite bounds the response's writes to span from now (rearm).
func (rc *reqConn) armWrite(now time.Time, span time.Duration) {
	if rearm(&rc.wdl, now, span) {
		_ = rc.meter.SetWriteDeadline(rc.wdl)
	}
}

// headBuffered reports whether br already holds the whole head of the
// next request and that request reads no body: the blank line ending the
// head is buffered, and no "POST" precedes it. Parsing such a request
// never waits on the socket, so it needs no read deadline of its own.
func headBuffered(br *bufio.Reader) bool {
	b, _ := br.Peek(br.Buffered())
	end := bytes.Index(b, []byte("\n\r\n"))
	if i := bytes.Index(b, []byte("\n\n")); i >= 0 && (end < 0 || i < end) {
		end = i
	}
	return end >= 0 && !bytes.Contains(b[:end], []byte("POST"))
}

// check returns the staleness validator for a cached copy of file: a file
// this node holds revalidates against the docroot (ownedFresh), a relayed
// foreign file against the manifest size (relayedFresh) — the strongest
// truth each side has. A failed check invalidates the entry atomically,
// so the cache never serves bytes older than what the validator can see.
func (rc *reqConn) check(file storage.File) func(cache.Entry) bool {
	rc.checked = file
	if file.HasReplica(rc.s.cfg.ID) {
		return rc.ownedCheck
	}
	return rc.relayedCheck
}

// ownedFresh validates a cached entry against the docroot file it came
// from: size and mtime must still match a stat of the path. It runs under
// the cache lock — cheap, and it makes validate-and-invalidate atomic with
// respect to concurrent fills. An entry read from this disk carries its
// resolved path, so the stat allocates nothing; one filled otherwise (a
// relay before this node held a replica) resolves the path first.
func (rc *reqConn) ownedFresh(ent cache.Entry) bool {
	disk := ent.Disk
	if disk == nil {
		disk = diskPath(rc.s.localPath(rc.checked.Path))
	}
	size, mod, ok := statDisk(disk)
	return ok && size == int64(len(ent.Body)) && mod.Equal(ent.ModTime)
}

// relayedFresh validates a relayed entry against the manifest size.
func (rc *reqConn) relayedFresh(ent cache.Entry) bool {
	return int64(len(ent.Body)) == rc.checked.Size
}

// diskPath is the NUL-terminated form of a docroot path that statDisk
// takes.
func diskPath(full string) []byte { return append([]byte(full), 0) }

// head encodes a response head for a body of n bytes, the one place a head
// is written: it fills in the protocol, keep-alive and Content-Length,
// records the status, and stamps the first chunk handed to the client, the
// instant the simulator stamps as TTFB. The one clock reading also dates
// the head.
func (rc *reqConn) head(h httpmsg.ResponseHead, n int64) bool {
	h.Proto, h.KeepAlive, h.ContentLength = rc.proto, rc.keepAlive, n
	at := time.Now()
	rc.ans.status, rc.ans.length, rc.ans.at = h.Code, n, at
	if h.Write(rc.bw, at) != nil {
		return rc.fail()
	}
	return true
}

// document encodes the 200 head of a document of n bytes and reports
// whether its body follows: not for a HEAD, nor on a failed connection.
func (rc *reqConn) document(req *httpmsg.Request, n int64, modTime time.Time) bool {
	h := httpmsg.ResponseHead{Code: httpmsg.StatusOK, ContentType: httpmsg.ContentTypeFor(req.Path), LastModified: modTime}
	return rc.head(h, n) && req.Method != "HEAD"
}

// reply writes a whole response whose body is a message, not a document:
// an error page, a 302's note, a 304, an introspection report. Neither
// served nor bytes_out counts it, and it goes out whatever the method.
// Content-Type defaults to text/html.
func (rc *reqConn) reply(h httpmsg.ResponseHead, body []byte) bool {
	if h.ContentType == "" {
		h.ContentType = "text/html"
	}
	rc.ans.message = true
	return rc.head(h, int64(len(body))) && rc.write(body)
}

// refuse answers an error with its page; the accounting step counts it in
// errors and drops its cause ("" for none).
func (rc *reqConn) refuse(h httpmsg.ResponseHead, cause, text string) bool {
	rc.ans.fault, rc.ans.cause = true, cause
	return rc.reply(h, httpmsg.ErrorBody(h.Code, text))
}

// holdBack is how many of an n-byte body write stay buffered for the serve
// loop's flush: none unless it completes the body, else its last bytes up
// to half the buffer, so no body's last byte leaves before the flush and a
// bulk body still leaves in large writes.
func (rc *reqConn) holdBack(n int64) int64 {
	if rc.ans.body+n != rc.ans.length {
		return 0
	}
	return min(n, int64(rc.bw.Size()/2))
}

// write hands p to the connection as the body's next bytes, uncopied past
// the buffer: a body that fits leaves with its head in one write, a bulk
// one goes to the socket straight from p.
func (rc *reqConn) write(p []byte) bool {
	cut := len(p) - int(rc.holdBack(int64(len(p))))
	n, err := rc.bw.Write(p[:cut])
	if err == nil {
		var m int
		m, err = rc.bw.Write(p[cut:])
		n += m
	}
	return rc.wrote(int64(n), err)
}

// copy hands the next n body bytes of r to the connection. An open file
// that does not fit the buffer's free space leaves from the page cache:
// the buffer goes first, then the socket reads the file itself
// (writeMeter.sendFile). Anything else crosses the pooled copy buffer. A
// source shorter than n is io.EOF and a failed response.
func (rc *reqConn) copy(r io.Reader, n int64) bool {
	hold := rc.holdBack(n)
	var sent int64
	var err error
	if f, ok := r.(*os.File); ok && n > int64(rc.bw.Available()) {
		if err = rc.bw.Flush(); err == nil {
			sent, err = rc.meter.sendFile(f, n-hold)
		}
	} else if n > hold {
		sent, err = httpmsg.CopyBodyN(rc.bw, r, n-hold)
	}
	if err == nil && hold > 0 {
		var last int64
		last, err = httpmsg.CopyBodyN(rc.bw, r, hold)
		sent += last
	}
	return rc.wrote(sent, err)
}

// wrote counts n body bytes handed to the connection, in bytes_out unless
// they are a message, and turns a write error into fail.
func (rc *reqConn) wrote(n int64, err error) bool {
	rc.ans.body += n
	if !rc.ans.message {
		rc.s.bytesOut.Add(n)
	}
	if err != nil {
		return rc.fail()
	}
	return true
}

// fail records a mid-response write failure at once, as an error and a
// write_failed drop. The response framing is now indeterminate, so the
// connection cannot carry another request and closes unflushed.
func (rc *reqConn) fail() bool {
	rc.s.errors.Add(1)
	rc.s.drop("write_failed")
	rc.keepAlive, rc.ans.failed = false, true
	return false
}

// status is the code of the response written so far: 0 before its head,
// and 0 once it failed.
func (rc *reqConn) status() int {
	if rc.ans.failed {
		return 0
	}
	return rc.ans.status
}

// flush sends what the current response left in the buffer: the serve
// loop's one flush per response, made after the response is accounted for
// (the accounting step with its Observe, trace, the load and connection
// gauges), so a client that has read a response to its end finds the
// node's books already closed on it. The outcome was fixed when its last byte reached
// the buffer; a failure here is the connection's, not a second outcome, so
// it counts an error and the connection closes, as a peer's reset after a
// successful write(2) would. A response that already failed closes
// unflushed. flush reports whether the connection is still usable.
func (rc *reqConn) flush() bool {
	if rc.ans.failed {
		return false
	}
	if err := rc.bw.Flush(); err != nil {
		rc.s.errors.Add(1)
		rc.keepAlive, rc.ans.failed = false, true
		return false
	}
	return true
}

// account closes the books on one response, once, after handle and before
// the serve loop's flush: the one exit every response leaves through. It
// counts served for a document that left whole (a 200 that is not a
// message, or a 304), errors and the cause for an error answer, and writes
// the one access-log line. A failed write, counted by fail, still gets its
// line: the status its head carried and the body bytes handed over. For a
// client request, o is its outcome, which account stamps with what the
// connection and the clock saw since t0, scores against the broker's
// prediction when served, and records (Observe). req is nil for a request
// that did not parse; o is nil for an internal fetch and a shed connection.
// The response ends at its done stamp, read here when the path that wrote
// it left none, and that instant becomes the connection's clock.
func (s *Server) account(rc *reqConn, req *httpmsg.Request, o *nodeobs.Outcome, t0 time.Time) {
	a := &rc.ans
	if a.done.IsZero() {
		a.done = time.Now()
	}
	done := a.done
	rc.now = done
	if o != nil {
		o.AtSeconds, o.ConnID, o.Status = s.sinceEpoch(t0), rc.info.id, rc.status()
		o.Bytes = rc.meter.written
		if !a.failed {
			o.Bytes += int64(rc.bw.Buffered()) // waiting for the serve loop's flush
		}
		// Time to first byte: the instant the sink encoded the head.
		o.TTFBSeconds = -1
		if !a.at.IsZero() {
			o.TTFBSeconds = a.at.Sub(t0).Seconds()
		}
		o.TotalSeconds, o.DoneMicros = done.Sub(t0).Seconds(), done.UnixMicro()
		// Only a clean serve scores t_s: an error path measures the
		// failure handling, and a 302 is fulfilled by its target.
		if o.Succeeded() {
			s.obs.Prediction(o.Decision, o.ParseSeconds+o.AnalyzeSeconds, o.FulfillSeconds, o.TotalSeconds)
		}
		s.obs.Observe(*o)
	}
	switch {
	case a.failed:
	case a.fault:
		s.errors.Add(1)
		if a.cause != "" {
			s.drop(a.cause)
		}
	case a.status == httpmsg.StatusNotModified, a.status == httpmsg.StatusOK && !a.message:
		s.served.Add(1)
	}
	s.logAccess(rc.meter.Conn, req, a.status, a.body, done)
}

// logAccess emits one Common Log Format line stamped at, when logging is
// configured. The byte count is a 200's body bytes; every other status
// logs "-".
func (s *Server) logAccess(conn net.Conn, req *httpmsg.Request, status int, body int64, at time.Time) {
	if s.cfg.AccessLog == nil {
		return
	}
	host := "-"
	if addr := conn.RemoteAddr(); addr != nil {
		host = addr.String()
		if h, _, err := net.SplitHostPort(host); err == nil {
			host = h
		}
	}
	e := accesslog.Entry{
		Host: host, Time: at,
		Method: "-", Path: "-", Proto: "HTTP/1.0",
		Status: status, Bytes: -1,
	}
	if status == httpmsg.StatusOK {
		e.Bytes = body
	}
	if req != nil {
		e.Method = req.Method
		e.Path = req.Path
		if req.Query != "" {
			e.Path += "?" + req.Query
		}
		if req.Proto != "" {
			e.Proto = req.Proto
		}
	}
	_ = s.cfg.AccessLog.Log(e)
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
// term wants after a 302. Deadlines stay on the raw socket, armed from the
// clock readings the request takes anyway and re-armed only when they
// drift out of their window (rearm), so a keep-alive hit arms none. Each
// response is flushed only after the accounting step has closed its books
// (Observe included) and the request has left reqActive; the connection's
// last response is left buffered for the caller, which closes the
// connection's own books first (serve).
func (s *Server) serveConn(rc *reqConn) {
	for {
		// Idle wait: the peer may keep the connection open up to
		// IdleTimeout between requests, counted from the end of the last
		// response (or the accept). Pipelined bytes already buffered make
		// the peek free.
		rc.armRead(rc.now, s.cfg.IdleTimeout)
		if _, err := rc.br.Peek(1); err != nil {
			// Clean close, idle timeout, or reset between requests:
			// nothing was promised, nothing to answer. A timeout on a
			// live server is the idle reaper doing its job.
			if ne, ok := err.(net.Error); ok && ne.Timeout() && !s.isDraining() {
				s.idleReaped.Add(1)
			}
			return
		}
		rc.meter.written, rc.ans = 0, answer{}
		t0 := time.Now()
		if !headBuffered(rc.br) {
			rc.armRead(t0, connTimeout)
		}
		req := &rc.req
		if err := httpmsg.ReadRequestInto(rc.br, req, s.knownPath); err != nil {
			rc.keepAlive = false
			s.badRequests.Add(1)
			rc.armWrite(time.Now(), connTimeout)
			rc.refuse(httpmsg.ResponseHead{Code: httpmsg.StatusBadRequest}, "bad_request", err.Error())
			s.account(rc, nil, &nodeobs.Outcome{Record: flight.Record{Path: "(unparsed)", Target: -1}}, t0)
			return
		}
		tParsed := time.Now()
		rc.served++
		rc.info.served.Add(1)
		rc.proto = "HTTP/1.0"
		if req.Proto == "HTTP/1.1" {
			rc.proto = "HTTP/1.1"
		}
		rc.keepAlive = !s.cfg.KeepAliveOff && req.KeepAlive() &&
			(s.cfg.KeepAliveMax <= 0 || rc.served < s.cfg.KeepAliveMax) &&
			!s.isDraining()
		rc.armWrite(tParsed, connTimeout)
		s.reqActive.Add(1)
		rc.info.active.Store(true)
		o := &nodeobs.Outcome{}
		if !s.handle(rc, req, t0, tParsed, o) {
			o = nil
		}
		s.account(rc, req, o, t0)
		rc.info.active.Store(false)
		s.reqActive.Add(-1)
		if !rc.keepAlive || s.isDraining() || !rc.flush() {
			return
		}
	}
}

// serveConns is one serve goroutine: it serves conn, then parks for the
// next connection the accept loop hands over (awaitConn) and serves that on
// the same reqConn, until it waits IdleTimeout for none or the server
// stops. A connection thus costs its syscalls, not a goroutine, two
// buffers and the rest of a reqConn; the goroutine stands in for an NCSA
// child process that lives on to serve connection after connection.
func (s *Server) serveConns(conn net.Conn) {
	defer s.wg.Done()
	rc := newReqConn(s, nil, 0)
	idle := time.NewTimer(s.cfg.IdleTimeout)
	defer idle.Stop()
	for conn != nil {
		s.serve(rc, conn)
		rc.reset(nil, 0) // hold no closed socket while parked
		conn = s.awaitConn(idle)
	}
}

// awaitConn parks the calling serve goroutine until the accept loop hands
// it a connection, for at most IdleTimeout on idle, and reports nil when
// none came or the server is shutting down.
func (s *Server) awaitConn(idle *time.Timer) net.Conn {
	if !idle.Stop() {
		select {
		case <-idle.C: // fired while the last connection was served
		default:
		}
	}
	idle.Reset(s.cfg.IdleTimeout)
	select {
	case c := <-s.handoff:
		return c
	case <-idle.C:
	case <-s.draining:
	case <-s.closed:
	}
	return nil
}

// serve runs one accepted connection to its end on rc. Its books close —
// the requests-per-connection histogram, the conn table, the inflight
// gauge — before its last response is flushed, so the client reading that
// response to its end (or to the close) finds them closed. The connection
// is untracked by then, so the hard-stop Close cannot cut that flush; the
// write deadline bounds it instead, and Close's wait covers it. A
// connection handed over after Close has closed the tracked ones is
// closed unserved.
func (s *Server) serve(rc *reqConn, conn net.Conn) {
	rc.reset(conn, s.connSeq.Add(1))
	if s.trackConn(conn, &rc.info) {
		s.serveConn(rc)
		// Requests-per-connection, observed once at connection end: the
		// keep-alive amortization persistent connections buy.
		s.kaServed.Observe(float64(rc.served))
		s.untrackConn(conn)
	}
	s.inflight.Add(-1)
	rc.flush()
	conn.Close()
}
