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

// acceptLoop is the NCSA-style accept loop. It hands each connection to a
// serve goroutine parked between connections, and starts a new one only
// when none is waiting (serveConns).
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
			s.obs.Step(s.cfg.Trace.NewRequest(), s.nowSec(), trace.EvRefused, nodeobs.NoCell, 0, nodeobs.Text("reason=capacity"))
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
				// Written before any reqConn exists; refused and the shed
				// drop are counted above, so only its log line is left.
				s.account(&reqConn{meter: &writeMeter{Conn: c},
					ans: answer{status: httpmsg.StatusServiceUnavailable, message: true}}, nil, nil, time.Time{})
			}(conn)
			continue
		}
		s.accepted.Add(1)
		s.inflight.Add(1)
		select {
		case s.handoff <- conn:
		default:
			s.wg.Add(1)
			go s.serveConns(conn)
		}
	}
}

// handle runs the four-phase lifecycle for one parsed request, filling in
// o, its outcome, for the accounting step. t0 is the moment the request's
// first byte arrived and tParsed the end of phase 1, preprocess, the parse
// the serve loop already ran. It times each phase and emits the same trace
// events the simulator does; the decisions are the spine's (core.Analyze,
// Facts.Fetch), and this is their socket executor. A served request reads
// the clock at the end of analysis, at its head (reqConn.head) and when it
// is done; every stamp, deadline and load reading comes from those and the
// serve loop's two. It reports false for an internal fetch, which stays
// invisible to trace and the lifecycle telemetry: it is the tail of
// another node's fetch-nfs span, not a request of its own.
func (s *Server) handle(rc *reqConn, req *httpmsg.Request, t0, tParsed time.Time, o *nodeobs.Outcome) bool {
	if req.Header.Get(internalHeader) != "" {
		s.serveInternal(rc, req)
		return false
	}
	o.Path, o.Target = req.Path, -1
	// Introspection is answered right where it arrived, like internal
	// fetches: rescheduling /sweb/status would report the wrong node.
	if !s.cfg.DisableIntrospection && strings.HasPrefix(req.Path, introspectPrefix) {
		s.introspect.Add(1)
		s.serveIntrospection(rc, req)
		return true
	}

	redirects := parseRedirectCount(req.Query)
	tctx, hopSentMicros, _ := parseTraceContext(req.Query)
	// Joining an inbound trace context keeps every hop of a redirected
	// request under one trace id; without one, this node originates it.
	tid, tctx := s.cfg.Trace.Begin(tctx)
	o.TraceID, o.Redirected = string(tctx), redirects > 0
	o.ParseSeconds = tParsed.Sub(t0).Seconds()
	var hop nodeobs.Detail
	if redirects > 0 {
		hop = nodeobs.Int("hop", redirects)
	}
	hopCell, hopSeconds := nodeobs.NoCell, 0.0
	if hopSentMicros > 0 {
		// The 302 carried its send time: the gap to this connection is the
		// measured t_redirection of the paper's cost model.
		hopCell, hopSeconds = nodeobs.CellRedirectHop, max(0, float64(t0.UnixMicro()-hopSentMicros)/1e6)
	}
	s.obs.Step(tid, s.sinceEpoch(t0), trace.EvConnected, hopCell, hopSeconds, hop)
	s.obs.Step(tid, s.sinceEpoch(tParsed), trace.EvParsed, nodeobs.CellParse, o.ParseSeconds, nodeobs.Str("path", req.Path))

	// Phase 2: analyze — the spine admits the request and places it. CGI
	// and POST stay where they arrived (Sec. 3.2 step 2; POST is the
	// paper's footnote-1 extension), but still get the local estimate.
	cgiFn, isCGI := s.cgiFor(req.Path)
	f := s.facts(req.Path)
	f.CGI, f.Pinned = isCGI, req.Method == "POST"
	// CachedLocal is the hot-file cache's residency, stat-free like the
	// simulator's Peek; with the cache off every candidate pays its t_data.
	f.Redirects, f.CachedLocal = redirects, s.cache != nil && s.cache.Peek(req.Path)
	rc.loads = s.snapshotLoads(rc.loads, tParsed)
	plan := core.AnalyzeInto(s.cfg.Policy, &f, s.cfg.ID, rc.loads, rc.cands)
	if c := plan.Decision.Candidates; cap(c) > cap(rc.cands) {
		rc.cands = c // the first table this connection needed: keep it as scratch
	}
	tAnalyzed := time.Now()
	o.AnalyzeSeconds = tAnalyzed.Sub(tParsed).Seconds()
	s.obs.Step(tid, s.sinceEpoch(tAnalyzed), trace.EvAnalyzed, nodeobs.CellAnalyze, o.AnalyzeSeconds,
		nodeobs.Int("target", plan.Target))
	if plan.Action == core.NotFound {
		if s.answer404(rc, "not_found") {
			rc.ans.done = time.Now()
			s.obs.Step(tid, s.sinceEpoch(rc.ans.done), trace.EvSent, nodeobs.NoCell, 0, nodeobs.Int("status", httpmsg.StatusNotFound))
		}
		return true
	}
	o.Policy, o.Target, o.Decision = s.cfg.Policy.Name(), plan.Target, plan.Decision
	if plan.Action == core.Redirect {
		// Phase 3: redirect via a 302 with the bumped URL, preserving the
		// client's own query parameters and threading the trace context
		// (stamped with the send time, so the target measures the hop).
		// Snapshot rows are configured peers only, so the target has one.
		loc := locationAt(s.locationBase(plan.Target), req.Path, req.Query, redirects,
			formatTraceContext(tctx, time.Now().UnixMicro()))
		if !rc.reply(httpmsg.ResponseHead{Code: httpmsg.StatusMovedTemporarily, Location: loc},
			httpmsg.ErrorBody(httpmsg.StatusMovedTemporarily,
				`The document has moved <A HREF="`+loc+`">here</A>.`)) {
			// The client never saw the 302, so no request is on its way to
			// the peer: inflating its load view would only skew later
			// decisions.
			return true
		}
		tSent := time.Now()
		rc.ans.done = tSent
		s.table.Bump(plan.Target)
		s.redirected.Add(1)
		s.obs.Redirect(plan.Target)
		s.obs.Step(tid, s.sinceEpoch(tSent), trace.EvRedirected, nodeobs.CellRedirect, tSent.Sub(tAnalyzed).Seconds(),
			nodeobs.Int("to", plan.Target))
		o.Redirected = true
		return true
	}

	// Phase 4: fulfillment. One counted cache lookup per request, exactly
	// like the simulator's Contains at the top of streamFile; the spine
	// then names the source. A validated hit serves from memory regardless
	// of ownership — no disk read, and for a foreign document no owner
	// round-trip either, which keeps it serving while its owner is dead. A
	// miss reads the disk or fetches from a peer and fills the cache on the
	// way out. Fulfillment starts where analysis ended.
	tFulfill := tAnalyzed
	var hot cache.Entry
	cacheHit := false
	if !f.CGI && s.cache != nil {
		hot, cacheHit = s.cache.Lookup(req.Path, rc.check(f.File))
	}
	fetch := f.Fetch(s.cfg.ID, cacheHit)
	kind, cell := nodeobs.FetchStep(fetch)
	var source nodeobs.Detail
	switch fetch {
	case core.FetchCache:
		source = nodeobs.Text("cache=hit")
	case core.FetchPeer:
		source = nodeobs.Int("owner", f.Owner)
	}
	s.obs.Step(tid, s.sinceEpoch(tFulfill), kind, nodeobs.NoCell, 0, source)
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
	// The fetch phase ends with the response: sent, unless its write
	// failed, which leaves only the time taken.
	done := trace.EvSent
	if status <= 0 {
		done = ""
	}
	tDone := time.Now()
	rc.ans.done = tDone
	o.FulfillSeconds = tDone.Sub(tFulfill).Seconds()
	s.obs.Step(tid, s.sinceEpoch(tDone), done, cell, o.FulfillSeconds, nodeobs.Int("status", status))
	// Heat counts fulfilled serves only — the same event the simulator's
	// complete() observes, so both substrates fill identical sketches.
	o.Fulfil(fetch, f.Owner, len(f.ReplicaSet()), s.cache != nil)
	return true
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
		s.answer404(rc, "")
		return
	}
	s.internalFetch.Add(1)
	if id := trace.TraceID(req.Header.Get(traceHeader)); id != "" {
		jid, _ := s.cfg.Trace.Begin(id)
		s.obs.Trace(jid, s.nowSec(), trace.EvFetchLocal, nodeobs.Text("internal=1"))
	}
	if file.Size > int64(rc.bw.Size()) {
		s.streamLocalFile(rc, req)
	} else {
		s.serveLocalFile(rc, req, file)
	}
}

// answer404 refuses a document that does not exist, dropping cause ("" for
// none), and reports whether the answer left.
func (s *Server) answer404(rc *reqConn, cause string) bool {
	s.notFound.Add(1)
	return rc.refuse(httpmsg.ResponseHead{Code: httpmsg.StatusNotFound}, cause,
		"The requested URL was not found on this server.")
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
	return locationAt(peerBase(httpAddr), path, query, redirects, traceCtx)
}

// peerBase is the "http://<addr>" every Location pointing at a peer
// listening on httpAddr starts with.
func peerBase(httpAddr string) string { return "http://" + httpAddr }

// locationAt is redirectLocation from a peer's precomputed base
// (Server.configured), its buffer sized once.
func locationAt(base, path, query string, redirects int, traceCtx string) string {
	var b strings.Builder
	b.Grow(len(base) + len(path) + len(query) + len(traceCtx) + 32)
	b.WriteString(base)
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
	b.WriteString(redirectParam + "=")
	b.WriteString(strconv.Itoa(redirects + 1))
	if traceCtx != "" {
		b.WriteString("&" + traceParam + "=")
		b.WriteString(traceCtx)
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

// snapshotLoads builds the broker's view as of now, into dst's storage
// when it has room (loadd.Table.SnapshotInto), refreshing the self row
// from live counters. CPULoad counts requests being processed right now,
// not open connections — a parked keep-alive connection is not load. Only
// configured peers are offered, so every target the broker can pick has
// an address.
func (s *Server) snapshotLoads(dst []core.NodeLoad, now time.Time) []core.NodeLoad {
	s.peersMu.RLock()
	loads := s.table.SnapshotInto(dst, len(s.configured), s.sinceEpoch(now))
	for id, base := range s.configured {
		if base == "" {
			loads[id].Available = false
		}
	}
	s.peersMu.RUnlock()
	loads[s.cfg.ID] = s.sampleAt(now).Load()
	return loads
}

// locationBase is the Location base of a configured node id
// (Server.configured).
func (s *Server) locationBase(id int) string {
	s.peersMu.RLock()
	defer s.peersMu.RUnlock()
	return s.configured[id]
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
// buffer; a larger one streams from the page cache instead (serveInternal),
// which is where the simulator's NFS server answers from and what its
// owner-side Insert stands for. The cache lookup here is quiet (no
// hit/miss accounting): the client-facing counted lookup already ran in
// handle, and internal fetches mirror the simulator's stat-free Peek.
func (s *Server) serveLocalFile(rc *reqConn, req *httpmsg.Request, file storage.File) int {
	if !s.cache.Admits(file.Size) {
		return s.streamLocalFile(rc, req)
	}
	rc.checked = file
	ent, err := s.cache.Fetch(req.Path, rc.ownedCheck, func() (cache.Entry, error) {
		return s.readLocalFile(req.Path)
	})
	if err != nil {
		return s.openFailed(rc, err)
	}
	return s.writeEntry(rc, req, ent)
}

// openFailed answers a docroot document that could not be opened or read.
func (s *Server) openFailed(rc *reqConn, err error) int {
	code := httpmsg.StatusNotFound
	if os.IsPermission(err) {
		code = httpmsg.StatusForbidden
	}
	rc.refuse(httpmsg.ResponseHead{Code: code}, "local_io", "Cannot open document.")
	return rc.status()
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
// an open document, recording the path it was opened by for the entry's
// staleness check. Size, mtime and bytes all come from the one descriptor,
// so a file replaced under the path mid-fill can never be cached as
// old-mtime/new-bytes — which ownedFresh would then accept as fresh.
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
	ent.Path, ent.ModTime, ent.Disk = path, fi.ModTime(), diskPath(f.Name())
	return ent, nil
}

// writeEntry answers a request from a memory-resident entry and then
// releases the pin the cache's Lookup or Fetch put on it — every entry the
// serving path obtains ends here, exactly once. Conditional GETs revalidate
// against the entry's mtime (local files and relayed bodies alike — the
// relay path carries the owner's Last-Modified into the entry); a full
// response hands the cached slice straight to the connection (reqConn.write),
// so a small body leaves with its header in one write and a large one goes
// to the socket uncopied — no diskActive, the whole point of the hit path.
func (s *Server) writeEntry(rc *reqConn, req *httpmsg.Request, ent cache.Entry) int {
	defer s.cache.Release(ent)
	if !ent.ModTime.IsZero() && httpmsg.NotModified(req.Header.Get("If-Modified-Since"), ent.ModTime) {
		return notModified(rc, ent.ModTime)
	}
	s.netActive.Add(1)
	defer s.netActive.Add(-1)
	if rc.document(req, int64(len(ent.Body)), ent.ModTime) {
		rc.write(ent.Body)
	}
	return rc.status()
}

// notModified answers a conditional GET whose copy is current (RFC 1945
// §10.9): a body-less 304 carrying the document's date.
func notModified(rc *reqConn, modTime time.Time) int {
	rc.reply(httpmsg.ResponseHead{Code: httpmsg.StatusNotModified, LastModified: modTime}, nil)
	return rc.status()
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
		rc.refuse(httpmsg.ResponseHead{Code: httpmsg.StatusInternalServerError}, "local_io", "stat failed")
		return rc.status()
	}
	// Conditional GET: a browser revalidating its cache sends
	// If-Modified-Since and gets a body-less 304 if the document is
	// unchanged — the cheapest response the 1996 server knows.
	if httpmsg.NotModified(req.Header.Get("If-Modified-Since"), fi.ModTime()) {
		return notModified(rc, fi.ModTime())
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
	sources := s.rankedSources(f, rc.loads)
	if len(sources) == 0 {
		rc.refuse(httpmsg.ResponseHead{Code: httpmsg.StatusInternalServerError}, "owner_unknown", "owner unknown")
		return rc.status()
	}
	s.netActive.Add(1)
	defer s.netActive.Add(-1)
	if !s.cache.Admits(file.Size) {
		return s.relayStream(rc, req, sources, file.Size, tctx)
	}
	var cw *clientWriter
	if req.Method == "GET" && req.Header.Get("If-Modified-Since") == "" {
		cw = &clientWriter{rc: rc, req: req}
	}
	check := rc.check(file)
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
		cw.wait()
		s.cache.Release(cw.ent)
		return rc.status()
	}
	if err != nil {
		return s.degrade503(rc)
	}
	return s.writeEntry(rc, req, ent)
}

// rankedSources maps the spine's cheapest-first replica order onto the
// known peers — the failover list the fetch paths walk. Unavailable
// replicas trail the list rather than vanish: when every replica looks
// dead the fetch still tries them, because the health view may be stale.
// scratch is storage the load snapshot may take.
func (s *Server) rankedSources(f *core.Facts, scratch []core.NodeLoad) []fetchSource {
	ranked := f.Sources(s.cfg.ID, s.snapshotLoads(scratch, time.Now()))
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
func (s *Server) degrade503(rc *reqConn) int {
	s.fetchFailed.Add(1)
	rc.refuse(httpmsg.ResponseHead{Code: httpmsg.StatusServiceUnavailable, RetryAfter: s.retryAfterSeconds()},
		"owner_unreachable", "owner unreachable")
	return rc.status()
}

// serveCGI executes a registered dynamic endpoint, returning the status
// written (0 when the write failed). Its output is a document of known
// length, sent whatever the method.
func (s *Server) serveCGI(rc *reqConn, req *httpmsg.Request, fn CGIFunc) int {
	body, ctype := fn(req.Query, req.Body)
	if ctype == "" {
		ctype = "text/html"
	}
	if rc.head(httpmsg.ResponseHead{Code: httpmsg.StatusOK, ContentType: ctype}, int64(len(body))) {
		rc.write(body)
	}
	return rc.status()
}

// streamResponse writes the 200 header and a body of size bytes that is
// read as it is sent (an open file, an upstream socket), returning the
// status written (0 when the write failed mid-flight, which also spends the
// connection). A zero modTime omits Last-Modified. The body leaves by
// reqConn.copy: sendfile for an open file that does not fit the buffer, the
// pooled copy buffer otherwise. A HEAD response skips the body and logs
// zero body bytes.
func (s *Server) streamResponse(rc *reqConn, req *httpmsg.Request, size int64, body io.Reader, modTime time.Time) int {
	s.netActive.Add(1)
	defer s.netActive.Add(-1)
	if rc.document(req, size, modTime) {
		rc.copy(body, size)
	}
	return rc.status()
}
