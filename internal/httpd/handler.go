package httpd

import (
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sweb/internal/accesslog"
	"sweb/internal/cache"
	"sweb/internal/core"
	"sweb/internal/httpmsg"
	"sweb/internal/nodeobs"
	"sweb/internal/retry"
	"sweb/internal/storage"
	"sweb/internal/trace"
)

// Markers the live protocol uses:
//   - the "swebr" query parameter counts redirects ("any HTTP request is
//     not allowed to be redirected more than once"); URL redirection has to
//     carry this in the URL because a 302 cannot set request headers;
//   - the "swebt" query parameter carries the trace context the same way:
//     "<trace-id>:<unix-micros>", the timestamp stamped at the moment the
//     302 left the redirecting node so the target can measure
//     t_redirection on the wall clock, without sharing an epoch. Every 302
//     carries it; the id is empty when the request is untraced, and a
//     client may send a bare "<trace-id>";
//   - the X-SWEB-Internal header marks a node-to-node fetch (the NFS
//     stand-in), which must be served directly, never re-scheduled;
//   - the X-SWEB-Trace header joins an internal fetch to the originating
//     request's trace, so the owner's disk read lands in the same span.
const (
	redirectParam  = "swebr"
	traceParam     = "swebt"
	internalHeader = "X-Sweb-Internal"
	traceHeader    = "X-Sweb-Trace"
)

const (
	connTimeout = 30 * time.Second
	// shedWriteTimeout bounds the courtesy 503 written to a shed
	// connection; a client that will not read it cannot stall anything.
	shedWriteTimeout = 2 * time.Second
)

// acceptLoop is the NCSA-style accept loop; each connection gets its own
// serve-loop goroutine (Go's stand-in for fork-per-request).
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	errStreak := 0
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			case <-s.draining:
				// Graceful shutdown closed the listener before closed is
				// signalled; exiting here (not continuing) keeps the loop
				// from spinning on the dead listener during the drain.
				return
			default:
			}
			// Back off on repeated transient errors (EMFILE, ECONNABORTED)
			// instead of hot-spinning the core, the same capped streak the
			// loadd listener uses; it resets on the next good accept.
			errStreak++
			if errStreak > 1 {
				time.Sleep(retry.Backoff(errStreak-1, time.Millisecond, 100*time.Millisecond))
			}
			continue
		}
		errStreak = 0
		if s.inflight.Load() >= int64(s.cfg.MaxConcurrent) {
			// Accept capacity exhausted: shed the connection, the live
			// analogue of a dropped request. The courtesy 503 goes out on
			// a separate goroutine with a write deadline so one slow or
			// absent reader can never stall the accept loop.
			s.refused.Add(1)
			s.drop("shed")
			s.obs.Event(trace.EvRefused)
			if rec := s.cfg.Trace; rec.Enabled() {
				rec.Record(rec.NewRequest(), s.nowSec(), trace.EvRefused, s.cfg.ID, "reason=capacity")
			}
			s.wg.Add(1)
			go func(c net.Conn) {
				defer s.wg.Done()
				defer c.Close()
				_ = c.SetWriteDeadline(time.Now().Add(shedWriteTimeout))
				h := httpmsg.Header{}
				h.Set("Retry-After", s.retryAfterSeconds())
				h.Set("Connection", "close")
				_ = httpmsg.WriteSimpleResponse(c, httpmsg.StatusServiceUnavailable, h,
					httpmsg.ErrorBody(httpmsg.StatusServiceUnavailable, "Server too busy."))
				s.logAccess(c, nil, httpmsg.StatusServiceUnavailable, -1)
			}(conn)
			continue
		}
		s.accepted.Add(1)
		s.inflight.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(conn)
		}()
	}
}

// logAccess emits one Common Log Format line, when logging is configured.
func (s *Server) logAccess(conn net.Conn, req *httpmsg.Request, status int, bytes int64) {
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
		Host: host, Time: time.Now(),
		Method: "-", Path: "-", Proto: "HTTP/1.0",
		Status: status, Bytes: bytes,
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

// exchange is one client request's telemetry as handle's phases fill it
// in: the outcome Observe records, plus what the decision audit needs.
type exchange struct {
	o        nodeobs.Outcome
	dec      core.Decision
	tFulfill time.Time // phase 4's start; zero when the request never got there
}

// handle runs the four-phase lifecycle for one parsed request. t0 is the
// moment the request's first byte arrived (phase 1, preprocess, is the
// parse the serve loop already ran). Every client request leaves through
// the one Observe at the bottom: lifecycle fills in the outcome, the
// epilogue stamps its timing and audits the decision.
func (s *Server) handle(rc *reqConn, req *httpmsg.Request, t0 time.Time) {
	var x exchange
	x.o.Path, x.o.Target = req.Path, -1
	if !s.lifecycle(rc, req, t0, &x) {
		return
	}
	done := time.Now()
	s.stamp(rc, &x.o, t0, done)
	if x.o.Policy != "" {
		s.auditDecision(&x, done)
	}
	s.obs.Observe(x.o)
}

// auditDecision records a scheduled request's decision next to what the
// node then measured: a 302 that left (fulfilled by its target), or
// service here, whose clean completion also scores the broker's
// prediction — an error path measures the failure handling, not t_s. A 302
// that never reached the client placed nothing and is not audited.
func (s *Server) auditDecision(x *exchange, done time.Time) {
	o := &x.o
	a := DecisionAudit{
		AtSeconds:        o.AtSeconds,
		Path:             o.Path,
		Policy:           o.Policy,
		Target:           o.Target,
		PredictedSeconds: sanitizeSeconds(x.dec.Estimate),
		ActualSeconds:    -1, // a redirect is fulfilled by the target node
		ParseSeconds:     o.ParseSeconds,
		AnalyzeSeconds:   o.AnalyzeSeconds,
	}
	switch {
	case o.Status == httpmsg.StatusMovedTemporarily:
		a.Redirected = true
	case x.tFulfill.IsZero():
		return
	default:
		a.ActualSeconds = o.TotalSeconds
		a.FulfillSeconds = done.Sub(x.tFulfill).Seconds()
	}
	s.audit.add(a, x.dec.Candidates)
	if o.Succeeded() {
		s.obs.Prediction(x.dec, a.ParseSeconds+a.AnalyzeSeconds, a.FulfillSeconds, a.ActualSeconds)
	}
}

// lifecycle answers the request, timing each phase and emitting the same
// trace events the simulator does while filling x. The decisions are the
// spine's (core.Analyze, Facts.Fetch); this is their socket executor. It
// reports false for an internal fetch, which stays invisible to trace and
// the lifecycle telemetry: it is the tail of another node's fetch-nfs
// span, not a request of its own.
func (s *Server) lifecycle(rc *reqConn, req *httpmsg.Request, t0 time.Time, x *exchange) bool {
	tParsed := time.Now()
	o := &x.o
	if req.Header.Get(internalHeader) != "" {
		s.serveInternal(rc, req)
		return false
	}
	// Introspection is answered right where it arrived, like internal
	// fetches: rescheduling /sweb/status would report the wrong node.
	if !s.cfg.DisableIntrospection && strings.HasPrefix(req.Path, introspectPrefix) {
		s.introspect.Add(1)
		o.Status = s.serveIntrospection(rc, req)
		return true
	}

	redirects := parseRedirectCount(req.Query)
	tctx, hopSentMicros, _ := parseTraceContext(req.Query)
	// Trace details are formatted only under traced: with the recorder off
	// no request pays for a string nobody will read.
	rec := s.cfg.Trace
	traced := rec.Enabled()
	tid := int64(-1)
	if traced {
		// Joining an inbound trace context keeps every hop of a redirected
		// request under one trace id; without one, this node originates it.
		tid, tctx = rec.Begin(tctx)
		connDetail := ""
		if redirects > 0 {
			connDetail = "hop=" + strconv.Itoa(redirects)
		}
		rec.Record(tid, s.sinceEpoch(t0), trace.EvConnected, s.cfg.ID, connDetail)
		rec.Record(tid, s.sinceEpoch(tParsed), trace.EvParsed, s.cfg.ID, "path="+req.Path)
	}
	o.TraceID, o.Redirected = string(tctx), redirects > 0
	o.ParseSeconds = tParsed.Sub(t0).Seconds()
	s.obs.Event(trace.EvConnected)
	s.obs.Event(trace.EvParsed)
	s.obs.Phase("parse", o.ParseSeconds)
	if hopSentMicros > 0 {
		// The 302 carried its send time: the gap to this connection is the
		// measured t_redirection of the paper's cost model.
		s.obs.Phase("redirect_hop", max(0, float64(t0.UnixMicro()-hopSentMicros)/1e6))
	}

	// Phase 2: analyze — the spine admits the request and places it. CGI
	// and POST stay where they arrived (Sec. 3.2 step 2; POST is the
	// paper's footnote-1 extension), but still get the local estimate.
	cgiFn, isCGI := s.cgiFor(req.Path)
	f := s.facts(req.Path)
	f.CGI, f.Pinned = isCGI, req.Method == "POST"
	// CachedLocal is the hot-file cache's residency, stat-free like the
	// simulator's Peek; with the cache off every candidate pays its t_data.
	f.Redirects, f.CachedLocal = redirects, s.cache != nil && s.cache.Peek(req.Path)
	plan := core.Analyze(s.cfg.Policy, &f, s.cfg.ID, s.snapshotLoads())
	tAnalyzed := time.Now()
	o.AnalyzeSeconds = tAnalyzed.Sub(tParsed).Seconds()
	s.obs.Event(trace.EvAnalyzed)
	s.obs.Phase("analyze", o.AnalyzeSeconds)
	if traced {
		rec.Record(tid, s.sinceEpoch(tAnalyzed), trace.EvAnalyzed, s.cfg.ID,
			"target="+strconv.Itoa(plan.Target))
	}
	if plan.Action == core.NotFound {
		s.drop("not_found")
		o.Status = httpmsg.StatusNotFound
		if s.answer404(rc, req) {
			s.sent(tid, httpmsg.StatusNotFound)
		}
		return true
	}
	x.dec = plan.Decision
	o.Policy, o.Target, o.Estimate = s.cfg.Policy.Name(), plan.Target, plan.Decision.Estimate
	if plan.Action == core.Redirect {
		// Phase 3: redirect via a 302 with the bumped URL, preserving the
		// client's own query parameters and threading the trace context
		// (stamped with the send time, so the target measures the hop).
		// Snapshot rows are configured peers only, so the target has one.
		peer, _ := s.peerByID(plan.Target)
		loc := redirectLocation(peer.HTTPAddr, req.Path, req.Query, redirects,
			formatTraceContext(tctx, time.Now().UnixMicro()))
		if rc.simple(httpmsg.StatusMovedTemporarily, &httpmsg.ResponseHead{Location: loc},
			httpmsg.ErrorBody(httpmsg.StatusMovedTemporarily,
				`The document has moved <A HREF="`+loc+`">here</A>.`)) != nil {
			// The client never saw the 302, so no request is on its way to
			// the peer: inflating its load view would only skew later
			// decisions.
			s.errors.Add(1)
			s.drop("write_failed")
			return true
		}
		tSent := time.Now()
		s.table.Bump(plan.Target)
		s.redirected.Add(1)
		s.obs.Event(trace.EvRedirected)
		s.obs.Redirect(plan.Target)
		s.obs.Phase("redirect", tSent.Sub(tAnalyzed).Seconds())
		if traced {
			rec.Record(tid, s.sinceEpoch(tSent), trace.EvRedirected, s.cfg.ID,
				"to="+strconv.Itoa(plan.Target))
		}
		s.logAccess(rc.c, req, httpmsg.StatusMovedTemporarily, -1)
		o.Status, o.Redirected = httpmsg.StatusMovedTemporarily, true
		return true
	}

	// Phase 4: fulfillment. One counted cache lookup per request, exactly
	// like the simulator's Contains at the top of streamFile; the spine
	// then names the source. A validated hit serves from memory regardless
	// of ownership — no disk read, and for a foreign document no owner
	// round-trip either, which keeps it serving while its owner is dead. A
	// miss reads the disk or fetches from a peer and fills the cache on the
	// way out.
	tFulfill := time.Now()
	x.tFulfill = tFulfill
	var hot cache.Entry
	cacheHit := false
	if !f.CGI && s.cache != nil {
		hot, cacheHit = s.cache.Lookup(req.Path, s.entryCheck(req.Path, f.File))
	}
	fetch := f.Fetch(s.cfg.ID, cacheHit)
	kind, cell := nodeobs.FetchStep(fetch)
	s.obs.Event(kind)
	if traced {
		detail := ""
		switch fetch {
		case core.FetchCache:
			detail = "cache=hit"
		case core.FetchPeer:
			detail = "owner=" + strconv.Itoa(f.Owner)
		}
		rec.Record(tid, s.sinceEpoch(tFulfill), kind, s.cfg.ID, detail)
	}
	var status int
	switch fetch {
	case core.FetchCGI:
		status = s.serveCGI(rc, req, cgiFn)
	case core.FetchCache:
		status = s.writeEntry(rc, req, hot)
	case core.FetchDisk:
		status = s.serveLocalFile(rc, req, f.File)
	default:
		status = s.serveRemoteFile(rc, req, &f, tctx)
	}
	s.obs.Phase(cell, time.Since(tFulfill).Seconds())
	if status > 0 {
		s.sent(tid, status)
	}
	// Heat counts fulfilled serves only — the same event the simulator's
	// complete() observes, so both substrates fill identical sketches.
	o.Status = status
	o.Fulfil(fetch, f.Owner, len(f.ReplicaSet()), s.cache != nil)
	return true
}

// sent records that a client response left in full.
func (s *Server) sent(tid int64, status int) {
	s.obs.Event(trace.EvSent)
	if rec := s.cfg.Trace; rec.Enabled() {
		rec.Record(tid, s.sinceEpoch(time.Now()), trace.EvSent, s.cfg.ID,
			"status="+strconv.Itoa(status))
	}
}

// serveInternal answers a peer's internal fetch: this node is the NFS
// server, so nothing is scheduled. When the fetching node sent a trace
// header, the disk read joins the originating request's span; otherwise it
// stays trace-invisible as the tail of the fetcher's own fetch-nfs phase.
// Like an NFS server, a document bigger than the write buffer is answered
// from the OS page cache — sendfile, no hot-cache copy — and leaves the hot
// cache to the foreign documents this node's own clients ask for. A smaller
// one takes the cache fill, so it still leaves with its header in one write.
func (s *Server) serveInternal(rc *reqConn, req *httpmsg.Request) {
	file, found := s.cfg.Store.Lookup(req.Path)
	if !found {
		s.answer404(rc, req)
		return
	}
	s.internalFetch.Add(1)
	if rec := s.cfg.Trace; rec.Enabled() {
		if id := trace.TraceID(req.Header.Get(traceHeader)); id != "" {
			jid, _ := rec.Begin(id)
			rec.Record(jid, s.sinceEpoch(time.Now()), trace.EvFetchLocal, s.cfg.ID, "internal=1")
		}
	}
	if file.Size > int64(rc.bw.Size()) {
		s.streamLocalFile(rc, req)
	} else {
		s.serveLocalFile(rc, req, file)
	}
}

// answer404 writes the answer to a document that does not exist and
// reports whether it left.
func (s *Server) answer404(rc *reqConn, req *httpmsg.Request) bool {
	s.errors.Add(1)
	s.notFound.Add(1)
	err := rc.simple(httpmsg.StatusNotFound, nil,
		httpmsg.ErrorBody(httpmsg.StatusNotFound, "The requested URL was not found on this server."))
	s.logAccess(rc.c, req, httpmsg.StatusNotFound, -1)
	return err == nil
}

// facts gathers what the spine knows about path before the request's own
// markers: its manifest entry and the oracle's estimate.
func (s *Server) facts(path string) core.Facts {
	file, found := s.cfg.Store.Lookup(path)
	file.Path = path
	return core.Facts{File: file, Found: found, Demand: s.cfg.Oracle.Characterize(path)}
}

// redirectLocation rebuilds the client's URL pointing at a peer, keeping
// every original query parameter and replacing only the swebr counter and
// the swebt trace context, so `GET /doc?x=1` arrives at the target node
// still carrying `x=1`. The decoded path is re-escaped into wire form — a
// document name with a space or '%' must not produce a malformed Location.
// traceCtx is the rendered swebt value ("" omits the parameter).
func redirectLocation(httpAddr, path, query string, redirects int, traceCtx string) string {
	var b strings.Builder
	b.WriteString("http://")
	b.WriteString(httpAddr)
	b.WriteString(httpmsg.EscapePath(path))
	sep := byte('?')
	eachParam(query, func(pair string) bool {
		if !strings.HasPrefix(pair, redirectParam+"=") && !strings.HasPrefix(pair, traceParam+"=") {
			b.WriteByte(sep)
			b.WriteString(pair)
			sep = '&'
		}
		return true
	})
	b.WriteByte(sep)
	fmt.Fprintf(&b, "%s=%d", redirectParam, redirects+1)
	if traceCtx != "" {
		fmt.Fprintf(&b, "&%s=%s", traceParam, traceCtx)
	}
	return b.String()
}

// formatTraceContext renders the swebt value: the trace id, empty when
// the request is untraced, plus the moment the 302 goes out (Unix
// microseconds). The timestamp rides on every redirect, so every target
// measures t_redirection, traced or not.
func formatTraceContext(id trace.TraceID, sentUnixMicros int64) string {
	if sentUnixMicros <= 0 {
		return string(id)
	}
	return string(id) + ":" + strconv.FormatInt(sentUnixMicros, 10)
}

// eachParam walks a raw query string pair by pair with strings.Cut, never
// allocating, and hands fn each non-empty "key=value" segment in order
// until fn returns false. Every query reader in this package uses it.
func eachParam(query string, fn func(pair string) bool) {
	for pair, rest := "", query; rest != ""; {
		pair, rest, _ = strings.Cut(rest, "&")
		if pair != "" && !fn(pair) {
			return
		}
	}
}

// parseTraceContext extracts the swebt trace context from a query string:
// the first swebt value carrying a trace id, a send time, or both.
func parseTraceContext(query string) (id trace.TraceID, sentUnixMicros int64, ok bool) {
	eachParam(query, func(pair string) bool {
		v, has := strings.CutPrefix(pair, traceParam+"=")
		if !has {
			return true
		}
		idPart, tsPart, _ := strings.Cut(v, ":")
		n, err := strconv.ParseInt(tsPart, 10, 64)
		if err != nil || n <= 0 {
			n = 0
		}
		if idPart == "" && n == 0 {
			return true
		}
		id, sentUnixMicros, ok = trace.TraceID(idPart), n, true
		return false
	})
	return id, sentUnixMicros, ok
}

// retryAfterSeconds renders the configured Retry-After hint (whole
// seconds, minimum 1, as HTTP wants it).
func (s *Server) retryAfterSeconds() string {
	secs := int(math.Ceil(s.cfg.RetryAfterHint.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// entryCheck picks the staleness validator for a cached document: a file
// this node owns revalidates against the docroot (mtime and size must
// still match the stat), a relayed foreign file against the manifest size
// — the strongest truth each side has. A failed check invalidates the
// entry atomically, so the cache never serves bytes older than what the
// validator can see.
func (s *Server) entryCheck(path string, file storage.File) func(cache.Entry) bool {
	if file.HasReplica(s.cfg.ID) {
		return s.localCheck(path)
	}
	return func(ent cache.Entry) bool { return int64(len(ent.Body)) == file.Size }
}

// localCheck validates a cached entry against the docroot file it came
// from. It runs a stat under the cache lock — cheap, and it makes
// validate-and-invalidate atomic with respect to concurrent fills.
func (s *Server) localCheck(path string) func(cache.Entry) bool {
	full := s.localPath(path)
	return func(ent cache.Entry) bool {
		fi, err := os.Stat(full)
		return err == nil && fi.Size() == int64(len(ent.Body)) && fi.ModTime().Equal(ent.ModTime)
	}
}

// cacheable reports whether the document can go through the hot-file
// cache; oversized files stream straight from their source, mirroring the
// model cache's refusal to hold a file bigger than its whole capacity.
func (s *Server) cacheable(file storage.File) bool {
	return s.cache != nil && file.Size > 0 && file.Size <= s.cache.Capacity()
}

// snapshotLoads builds the broker's view, refreshing the self row from
// live counters. CPULoad counts requests being processed right now, not
// open connections — a parked keep-alive connection is not load. Only
// configured peers are offered, so every target the broker can pick has an
// address.
func (s *Server) snapshotLoads() []core.NodeLoad {
	s.peersMu.RLock()
	n := s.cfg.ID + 1
	for id := range s.peers {
		n = max(n, id+1)
	}
	loads := s.table.Snapshot(n, s.nowSec())
	for id := range loads {
		if _, ok := s.peers[id]; !ok {
			loads[id].Available = false
		}
	}
	s.peersMu.RUnlock()
	loads[s.cfg.ID] = s.sample().Load()
	return loads
}

func (s *Server) peerByID(id int) (Peer, bool) {
	s.peersMu.RLock()
	defer s.peersMu.RUnlock()
	p, ok := s.peers[id]
	return p, ok
}

// parseRedirectCount reads the swebr hop counter: the first value that is
// a non-negative integer, else 0.
func parseRedirectCount(query string) (n int) {
	eachParam(query, func(pair string) bool {
		if v, ok := strings.CutPrefix(pair, redirectParam+"="); ok {
			if c, err := strconv.Atoi(v); err == nil && c >= 0 {
				n = c
				return false
			}
		}
		return true
	})
	return n
}

// localPath maps a URL path into this node's docroot.
func (s *Server) localPath(urlPath string) string {
	return filepath.Join(s.cfg.DocRoot, filepath.FromSlash(strings.TrimPrefix(urlPath, "/")))
}

// serveLocalFile serves a document this node owns and returns the status
// written (0 when the write itself failed). Cacheable documents go through
// the hot-file cache with singleflight fill — one disk read per document
// no matter how many handlers want it at once. The owner side of an
// internal fetch comes here only for a document that fits the write
// buffer; a larger one streams from the page cache instead (lifecycle),
// which is where the simulator's NFS server answers from and what its
// owner-side Insert stands for. The cache lookup here is quiet (no
// hit/miss accounting): the client-facing counted lookup already ran in
// handle, and internal fetches mirror the simulator's stat-free Peek.
func (s *Server) serveLocalFile(rc *reqConn, req *httpmsg.Request, file storage.File) int {
	if !s.cacheable(file) {
		return s.streamLocalFile(rc, req)
	}
	ent, err := s.cache.Fetch(req.Path, s.localCheck(req.Path), func() (cache.Entry, error) {
		return s.readLocalFile(req.Path)
	})
	if err != nil {
		return s.openFailed(rc, err)
	}
	return s.writeEntry(rc, req, ent)
}

// openFailed answers a docroot document that could not be opened or read.
func (s *Server) openFailed(rc *reqConn, err error) int {
	s.errors.Add(1)
	s.drop("local_io")
	code := httpmsg.StatusNotFound
	if os.IsPermission(err) {
		code = httpmsg.StatusForbidden
	}
	_ = rc.simple(code, nil, httpmsg.ErrorBody(code, "Cannot open document."))
	return code
}

// readLocalFile is the cache's backing read: the whole document in one
// disk pass, with diskActive held across it so the scheduler sees the disk
// pressure of the fill.
func (s *Server) readLocalFile(path string) (cache.Entry, error) {
	s.diskActive.Add(1)
	defer s.diskActive.Add(-1)
	f, err := os.Open(s.localPath(path))
	if err != nil {
		return cache.Entry{}, err
	}
	defer f.Close()
	return s.readOpenFile(path, f)
}

// readOpenFile fills a cache-owned buffer of exactly the file's size from
// an open document. Size, mtime and bytes all come from the one descriptor,
// so a file replaced under the path mid-fill can never be cached as
// old-mtime/new-bytes — which localCheck would then accept as fresh.
func (s *Server) readOpenFile(path string, f *os.File) (cache.Entry, error) {
	fi, err := f.Stat()
	if err != nil {
		return cache.Entry{}, err
	}
	ent := s.cache.Alloc(fi.Size())
	if _, err := io.ReadFull(f, ent.Body); err != nil {
		s.cache.Release(ent)
		return cache.Entry{}, fmt.Errorf("read %s: %w", path, err)
	}
	ent.Path, ent.ModTime = path, fi.ModTime()
	return ent, nil
}

// writeEntry answers a request from a memory-resident entry and then
// releases the pin the cache's Lookup or Fetch put on it — every entry the
// serving path obtains ends here, exactly once. Conditional GETs revalidate
// against the entry's mtime (local files and relayed bodies alike — the
// relay path carries the owner's Last-Modified into the entry); a full
// response hands the cached slice straight to the connection's buffered
// writer, so a small body leaves with its header in one write and a large
// one goes to the socket uncopied — no diskActive, the whole point of the
// hit path.
func (s *Server) writeEntry(rc *reqConn, req *httpmsg.Request, ent cache.Entry) int {
	defer s.cache.Release(ent)
	if !ent.ModTime.IsZero() && httpmsg.NotModified(req.Header.Get("If-Modified-Since"), ent.ModTime) {
		_ = rc.simple(httpmsg.StatusNotModified, &httpmsg.ResponseHead{LastModified: ent.ModTime}, nil)
		s.served.Add(1)
		s.logAccess(rc.c, req, httpmsg.StatusNotModified, -1)
		return httpmsg.StatusNotModified
	}
	s.netActive.Add(1)
	defer s.netActive.Add(-1)
	if _, err := s.writeHeader(rc, req, int64(len(ent.Body)), ent.ModTime); err != nil {
		return rc.fail()
	}
	var sent int64
	if req.Method != "HEAD" {
		n, err := rc.writeLast(ent.Body)
		sent = int64(n)
		s.bytesOut.Add(sent)
		if err != nil {
			return rc.fail()
		}
	}
	return s.finishResponse(rc, req, sent)
}

// streamLocalFile streams a document from the node's own disk, bypassing
// the cache (cache off, the file exceeds the whole cache capacity, or a
// peer's internal fetch of a document larger than the write buffer).
// diskActive is held for the whole transfer — the disk is read as the body
// streams, so releasing the counter at open time would hide disk pressure
// from the scheduler exactly while the disk is busiest.
func (s *Server) streamLocalFile(rc *reqConn, req *httpmsg.Request) int {
	s.diskActive.Add(1)
	defer s.diskActive.Add(-1)
	f, err := os.Open(s.localPath(req.Path))
	if err != nil {
		return s.openFailed(rc, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		s.errors.Add(1)
		s.drop("local_io")
		_ = rc.simple(httpmsg.StatusInternalServerError, nil,
			httpmsg.ErrorBody(httpmsg.StatusInternalServerError, "stat failed"))
		return httpmsg.StatusInternalServerError
	}
	// Conditional GET (RFC 1945 §10.9): a browser revalidating its cache
	// sends If-Modified-Since and gets a body-less 304 if the document is
	// unchanged — the cheapest response the 1996 server knows.
	if httpmsg.NotModified(req.Header.Get("If-Modified-Since"), fi.ModTime()) {
		_ = rc.simple(httpmsg.StatusNotModified, &httpmsg.ResponseHead{LastModified: fi.ModTime()}, nil)
		s.served.Add(1)
		s.logAccess(rc.c, req, httpmsg.StatusNotModified, -1)
		return httpmsg.StatusNotModified
	}
	// The body streams straight from the open *os.File (by sendfile when it
	// outgrows the write buffer) — the document is never materialized in
	// one allocation.
	return s.streamResponse(rc, req, fi.Size(), f, fi.ModTime())
}

// serveRemoteFile fetches the document from a replica (the NFS stand-in)
// and relays it to the client. The replica set is walked cheapest-first
// (core.RankSources) with failover: a dead source feeds the loadd health
// view and the next attempt moves down the list, so a single node death
// never turns a replicated document into a 503 for anyone whose bytes were
// not already on the wire. Cacheable documents fill the hot-file cache —
// with the source's Last-Modified preserved so clients can 304-revalidate
// foreign documents — and concurrent requests for the same cold document
// coalesce into one fill (singleflight). The filling request, when it is a
// plain GET, is answered cut-through: its client gets the header and each
// range as the fill reads it, and the last byte once the entry is
// inserted. Waiters, HEADs and conditional GETs are answered from the
// entry. Documents too big for the cache stream straight from the source's
// socket to the client without ever being held in memory. Either way the
// source is opened under the node's retry budget, and only once the budget
// is spent across every replica does the client see the degradation
// ladder's last rung: 503 with a Retry-After hint.
func (s *Server) serveRemoteFile(rc *reqConn, req *httpmsg.Request, f *core.Facts, tctx trace.TraceID) int {
	file := f.File
	sources := s.rankedSources(f)
	if len(sources) == 0 {
		s.errors.Add(1)
		s.drop("owner_unknown")
		_ = rc.simple(httpmsg.StatusInternalServerError, nil,
			httpmsg.ErrorBody(httpmsg.StatusInternalServerError, "owner unknown"))
		return httpmsg.StatusInternalServerError
	}
	s.netActive.Add(1)
	defer s.netActive.Add(-1)
	if !s.cacheable(file) {
		return s.relayStream(rc, req, sources, file.Size, tctx)
	}
	var cw *clientWriter
	if req.Method == "GET" && req.Header.Get("If-Modified-Since") == "" {
		cw = &clientWriter{rc: rc, req: req}
	}
	check := s.entryCheck(req.Path, file)
	ent, err := refill(sources, cw, func() (cache.Entry, error) {
		return s.cache.Fetch(req.Path, check, func() (cache.Entry, error) {
			return s.fill(sources, req.Path, file.Size, tctx, cw)
		})
	})
	if cw.running() {
		// This request filled the entry and its client has the header: the
		// writer's outcome is the response's.
		if err == nil {
			cw.publish(len(ent.Body)) // inserted: the last byte may go
		}
		status := cw.wait()
		s.cache.Release(cw.ent)
		return status
	}
	if err != nil {
		return s.degrade503(rc, req)
	}
	return s.writeEntry(rc, req, ent)
}

// rankedSources maps the spine's cheapest-first replica order onto the
// known peers — the failover list the fetch paths walk. Unavailable
// replicas trail the list rather than vanish: when every replica looks
// dead the fetch still tries them, because the health view may be stale.
func (s *Server) rankedSources(f *core.Facts) []fetchSource {
	ranked := f.Sources(s.cfg.ID, s.snapshotLoads())
	out := make([]fetchSource, 0, len(ranked))
	for _, rep := range ranked {
		if peer, ok := s.peerByID(rep); ok {
			out = append(out, fetchSource{node: rep, peer: peer})
		}
	}
	return out
}

// degrade503 answers the degradation ladder's last rung: the owner stayed
// unreachable through the whole retry budget.
func (s *Server) degrade503(rc *reqConn, req *httpmsg.Request) int {
	s.errors.Add(1)
	s.fetchFailed.Add(1)
	s.drop("owner_unreachable")
	_ = rc.simple(httpmsg.StatusServiceUnavailable, &httpmsg.ResponseHead{RetryAfter: s.retryAfterSeconds()},
		httpmsg.ErrorBody(httpmsg.StatusServiceUnavailable, "owner unreachable"))
	s.logAccess(rc.c, req, httpmsg.StatusServiceUnavailable, -1)
	return httpmsg.StatusServiceUnavailable
}

// serveCGI executes a registered dynamic endpoint, returning the status
// written (0 when the write failed).
func (s *Server) serveCGI(rc *reqConn, req *httpmsg.Request, fn CGIFunc) int {
	body, ctype := fn(req.Query, req.Body)
	if ctype == "" {
		ctype = "text/html"
	}
	if err := rc.simple(httpmsg.StatusOK, &httpmsg.ResponseHead{ContentType: ctype}, body); err != nil {
		s.drop("write_failed")
		return 0
	}
	s.served.Add(1)
	s.bytesOut.Add(int64(len(body)))
	s.logAccess(rc.c, req, httpmsg.StatusOK, int64(len(body)))
	return httpmsg.StatusOK
}

// writeHeader buffers the 200 header for a body of the given size on the
// connection's writer. size < 0 means the length is unknown up front:
// HTTP/1.1 clients get chunked transfer coding (reported back), and
// HTTP/1.0 clients an EOF-delimited body on a connection marked close. A
// zero modTime omits Last-Modified.
func (s *Server) writeHeader(rc *reqConn, req *httpmsg.Request, size int64, modTime time.Time) (chunked bool, err error) {
	switch {
	case size >= 0:
	case rc.proto == "HTTP/1.1":
		chunked = true
	default:
		// Unknown length to a 1.0 client: the body runs to EOF, so this
		// connection cannot carry another request.
		rc.keepAlive = false
	}
	h := httpmsg.ResponseHead{
		Proto:         rc.proto,
		Code:          httpmsg.StatusOK,
		KeepAlive:     rc.keepAlive,
		ContentLength: size,
		ContentType:   httpmsg.ContentTypeFor(req.Path),
		LastModified:  modTime,
		Chunked:       chunked,
	}
	return chunked, h.Write(rc.bw)
}

// finishResponse accounts for a 200 whose last bytes are in the
// connection's buffer; the serve loop flushes them (reqConn.flush).
func (s *Server) finishResponse(rc *reqConn, req *httpmsg.Request, sent int64) int {
	s.served.Add(1)
	s.logAccess(rc.c, req, httpmsg.StatusOK, sent)
	return httpmsg.StatusOK
}

// streamResponse writes the response header and a body that is read as it
// is sent (an open file, an upstream socket) in the httpd write-loop style,
// returning the status written (0 when the write failed mid-flight, which
// also spends the connection). size and modTime are writeHeader's. An open
// file of known size that does not fit the connection's buffer is sent by
// the socket itself (writeMeter.sendFile); any other body crosses through a
// pooled copy buffer. Either way the body's last holdBack bytes go to the
// buffer for the serve loop's flush. A HEAD response skips the body entirely
// and logs zero body bytes.
func (s *Server) streamResponse(rc *reqConn, req *httpmsg.Request, size int64, body io.Reader, modTime time.Time) int {
	s.netActive.Add(1)
	defer s.netActive.Add(-1)
	chunked, err := s.writeHeader(rc, req, size, modTime)
	if err != nil {
		return rc.fail()
	}
	var sent int64
	if req.Method != "HEAD" {
		switch {
		case chunked:
			cw := httpmsg.NewChunkedWriter(rc.bw)
			sent, err = httpmsg.CopyBody(cw, body)
			if err == nil {
				err = cw.Close()
			}
		case size >= 0:
			head := size - rc.holdBack(size)
			if f, ok := body.(*os.File); ok && size > int64(rc.bw.Available()) {
				// A file that does not fit the buffer leaves from the page
				// cache: the header goes first, then the socket reads the
				// file itself.
				if err = rc.bw.Flush(); err == nil {
					sent, err = rc.meter.sendFile(f, head)
				}
			} else if head > 0 {
				sent, err = httpmsg.CopyBodyN(rc.bw, body, head)
			}
			if err == nil {
				var last int64
				last, err = httpmsg.CopyBodyN(rc.bw, body, size-head)
				sent += last
			}
		default:
			sent, err = httpmsg.CopyBody(rc.bw, body)
		}
		s.bytesOut.Add(sent)
		if err != nil {
			// Short or failed body: the client was promised different
			// framing than it got, so the connection is unusable.
			return rc.fail()
		}
	}
	return s.finishResponse(rc, req, sent)
}
