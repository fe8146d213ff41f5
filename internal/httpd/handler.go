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
			defer s.inflight.Add(-1)
			defer conn.Close()
			ci := s.trackConn(conn)
			defer s.untrackConn(conn)
			s.serveConn(conn, ci)
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

// lifecycle answers the request, timing each phase, emitting the same
// trace events the simulator does and filling x. It reports false for an
// internal fetch, which stays invisible to trace and the lifecycle
// telemetry: it is the tail of another node's fetch-nfs span, not a
// request of its own.
func (s *Server) lifecycle(rc *reqConn, req *httpmsg.Request, t0 time.Time, x *exchange) bool {
	tParsed := time.Now()
	internal := req.Header.Get(internalHeader) != ""
	o := &x.o

	// Introspection is answered right where it arrived, like internal
	// fetches: rescheduling /sweb/status would report the wrong node.
	if !internal && !s.cfg.DisableIntrospection && strings.HasPrefix(req.Path, introspectPrefix) {
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
	if !internal {
		if traced {
			// Joining an inbound trace context keeps every hop of a
			// redirected request under one trace id; without one, this
			// node originates the trace.
			tid, tctx = rec.Begin(tctx)
			connDetail := ""
			if redirects > 0 {
				connDetail = "hop=" + strconv.Itoa(redirects)
			}
			rec.Record(tid, s.sinceEpoch(t0), trace.EvConnected, s.cfg.ID, connDetail)
			rec.Record(tid, s.sinceEpoch(tParsed), trace.EvParsed, s.cfg.ID, "path="+req.Path)
		}
		s.obs.Event(trace.EvConnected)
		s.obs.Event(trace.EvParsed)
		s.obs.Phase("parse", tParsed.Sub(t0).Seconds())
		if hopSentMicros > 0 {
			// The 302 carried its send time: the gap to this connection is
			// the measured t_redirection of the paper's cost model.
			hop := float64(t0.UnixMicro()-hopSentMicros) / 1e6
			if hop < 0 {
				hop = 0
			}
			s.obs.Phase("redirect_hop", hop)
		}
	}
	o.TraceID = string(tctx)
	o.Redirected = redirects > 0
	o.ParseSeconds = tParsed.Sub(t0).Seconds()

	cgiFn, isCGI := s.cgiFor(req.Path)
	file, found := s.cfg.Store.Lookup(req.Path)
	if !found && !isCGI {
		s.errors.Add(1)
		s.notFound.Add(1)
		if !internal {
			s.drop("not_found")
		}
		_ = rc.simple(httpmsg.StatusNotFound, nil,
			httpmsg.ErrorBody(httpmsg.StatusNotFound, "The requested URL was not found on this server."))
		s.logAccess(rc.c, req, httpmsg.StatusNotFound, -1)
		o.Status = httpmsg.StatusNotFound
		return !internal
	}

	// Internal fetches bypass scheduling entirely: we are the NFS server.
	// When the fetching node sent a trace header, the disk read joins the
	// originating request's span; otherwise it stays trace-invisible as
	// the tail of the fetcher's own fetch-nfs phase. Like an NFS server, a
	// document bigger than the write buffer is answered from the OS page
	// cache — sendfile, no hot-cache copy — and leaves the hot cache to
	// the foreign documents this node's own clients ask for. A smaller one
	// takes the cache fill, so it still leaves with its header in one write.
	if internal {
		s.internalFetch.Add(1)
		if id := trace.TraceID(req.Header.Get(traceHeader)); id != "" && traced {
			jid, _ := rec.Begin(id)
			rec.Record(jid, s.sinceEpoch(time.Now()), trace.EvFetchLocal, s.cfg.ID, "internal=1")
		}
		if file.Size > int64(rc.bw.Size()) {
			s.streamLocalFile(rc, req)
		} else {
			s.serveLocalFile(rc, req, file)
		}
		return false
	}

	// Phase 2: analyze — the broker picks the best node. CGI and POST are
	// pinned where they arrived (Sec. 3.2 step 2; POST handling is the
	// paper's footnote-1 extension).
	if !isCGI && req.Method != "POST" {
		d := s.cfg.Oracle.Characterize(req.Path)
		coreReq := core.Request{
			Path:          req.Path,
			Size:          file.Size,
			Owner:         file.Owner,
			Replicas:      file.Replicas,
			Ops:           d.Ops(file.Size) + file.CGIOps,
			DiskBytes:     d.DiskBytes(file.Size),
			Arrived:       s.cfg.ID,
			RedirectCount: redirects,
			CachedLocal:   s.cachedLocally(req.Path),
		}
		x.dec = s.cfg.Policy.Choose(coreReq, s.cfg.ID, s.snapshotLoads())
		target := s.confirmTarget(x.dec)
		tAnalyzed := time.Now()
		o.Policy, o.Target, o.Estimate = s.cfg.Policy.Name(), target, x.dec.Estimate
		o.AnalyzeSeconds = tAnalyzed.Sub(tParsed).Seconds()
		s.obs.Event(trace.EvAnalyzed)
		s.obs.Phase("analyze", o.AnalyzeSeconds)
		if traced {
			rec.Record(tid, s.sinceEpoch(tAnalyzed), trace.EvAnalyzed, s.cfg.ID,
				"target="+strconv.Itoa(target))
		}
		if target != s.cfg.ID {
			if peer, ok := s.peerByID(target); ok {
				// Phase 3: redirect via a 302 with the bumped URL,
				// preserving the client's own query parameters and
				// threading the trace context (stamped with the send
				// time, so the target measures the hop).
				loc := redirectLocation(peer.HTTPAddr, req.Path, req.Query, redirects,
					formatTraceContext(tctx, time.Now().UnixMicro()))
				err := rc.simple(httpmsg.StatusMovedTemporarily, &httpmsg.ResponseHead{Location: loc},
					httpmsg.ErrorBody(httpmsg.StatusMovedTemporarily,
						`The document has moved <A HREF="`+loc+`">here</A>.`))
				if err != nil {
					// The client never saw the 302, so no request is on
					// its way to the peer: inflating its load view would
					// only skew later decisions.
					s.errors.Add(1)
					s.drop("write_failed")
					return true
				}
				tSent := time.Now()
				s.table.Bump(target)
				s.redirected.Add(1)
				s.obs.Event(trace.EvRedirected)
				s.obs.Redirect(target)
				s.obs.Phase("redirect", tSent.Sub(tAnalyzed).Seconds())
				if traced {
					rec.Record(tid, s.sinceEpoch(tSent), trace.EvRedirected, s.cfg.ID,
						"to="+strconv.Itoa(target))
				}
				s.logAccess(rc.c, req, httpmsg.StatusMovedTemporarily, -1)
				o.Status, o.Redirected = httpmsg.StatusMovedTemporarily, true
				return true
			}
		}
		o.Target = s.cfg.ID
	}

	// Phase 4: fulfillment. One counted cache lookup per request, exactly
	// like the simulator's Contains at the top of streamFile: a validated
	// hit serves from memory regardless of ownership (emitting fetch-local,
	// as the simulator does for cached remote documents), a miss falls
	// through to the disk or the owner and fills the cache on the way out.
	tFulfill := time.Now()
	x.tFulfill = tFulfill
	var status int
	var hot cache.Entry
	cacheHit := false
	if !isCGI && s.cache != nil {
		hot, cacheHit = s.cache.Lookup(req.Path, s.entryCheck(req.Path, file))
	}
	switch {
	case isCGI:
		s.obs.Event(trace.EvCGI)
		if traced {
			rec.Record(tid, s.sinceEpoch(tFulfill), trace.EvCGI, s.cfg.ID, "path="+req.Path)
		}
		status = s.serveCGI(rc, req, cgiFn)
		s.obs.Phase("cgi", time.Since(tFulfill).Seconds())
	case cacheHit:
		// Hot-file hit: a memory copy — no disk read, and for a foreign
		// document no owner round-trip either, which keeps the document
		// serving even while its owner is dead.
		s.obs.Event(trace.EvFetchLocal)
		rec.Record(tid, s.sinceEpoch(tFulfill), trace.EvFetchLocal, s.cfg.ID, "cache=hit")
		status = s.writeEntry(rc, req, hot)
		s.obs.Phase("fetch_local", time.Since(tFulfill).Seconds())
	case file.HasReplica(s.cfg.ID):
		s.obs.Event(trace.EvFetchLocal)
		rec.Record(tid, s.sinceEpoch(tFulfill), trace.EvFetchLocal, s.cfg.ID, "")
		status = s.serveLocalFile(rc, req, file)
		s.obs.Phase("fetch_local", time.Since(tFulfill).Seconds())
	default:
		s.obs.Event(trace.EvFetchNFS)
		if traced {
			rec.Record(tid, s.sinceEpoch(tFulfill), trace.EvFetchNFS, s.cfg.ID,
				"owner="+strconv.Itoa(file.Owner))
		}
		status = s.serveRemoteFile(rc, req, file, tctx)
		s.obs.Phase("fetch_nfs", time.Since(tFulfill).Seconds())
	}
	if status > 0 {
		s.obs.Event(trace.EvSent)
		if traced {
			rec.Record(tid, s.sinceEpoch(time.Now()), trace.EvSent, s.cfg.ID,
				"status="+strconv.Itoa(status))
		}
	}
	// Heat counts fulfilled serves only — the same event the simulator's
	// complete() observes, so both substrates fill identical sketches.
	o.Status, o.Fulfilled, o.CacheHit = status, true, cacheHit
	o.Owner = -1
	if !isCGI {
		o.Owner = file.Owner
	}
	o.Relay = !isCGI && !cacheHit && !file.HasReplica(s.cfg.ID)
	o.Miss = !isCGI && s.cache != nil && !cacheHit
	o.Replicas = len(file.ReplicaSet())
	return true
}

// confirmTarget re-validates the broker's pick against the freshest peer
// health: never 302 to a peer whose loadd row has gone stale or whose data
// path is in a failure streak. When the pick fails the check, the cheapest
// remaining feasible candidate wins (local service included), so a dead
// peer degrades the schedule instead of the request.
func (s *Server) confirmTarget(dec core.Decision) int {
	target := dec.Target
	if target == s.cfg.ID {
		return target
	}
	now := s.nowSec()
	if s.table.Available(target, now) {
		return target
	}
	best, bestTotal := s.cfg.ID, math.Inf(1)
	for _, cb := range dec.Candidates {
		if cb.Infeasible || cb.Node == target {
			continue
		}
		if cb.Node != s.cfg.ID && !s.table.Available(cb.Node, now) {
			continue
		}
		if cb.Total < bestTotal {
			best, bestTotal = cb.Node, cb.Total
		}
	}
	return best
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
	for _, kv := range strings.Split(query, "&") {
		if kv == "" || strings.HasPrefix(kv, redirectParam+"=") ||
			strings.HasPrefix(kv, traceParam+"=") {
			continue
		}
		b.WriteByte(sep)
		b.WriteString(kv)
		sep = '&'
	}
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

// parseTraceContext extracts the swebt trace context from a query string:
// the first swebt value carrying a trace id, a send time, or both.
func parseTraceContext(query string) (id trace.TraceID, sentUnixMicros int64, ok bool) {
	for kv, rest := "", query; rest != ""; {
		kv, rest, _ = strings.Cut(rest, "&")
		v, has := strings.CutPrefix(kv, traceParam+"=")
		if !has {
			continue
		}
		idPart, tsPart, _ := strings.Cut(v, ":")
		n, err := strconv.ParseInt(tsPart, 10, 64)
		if err != nil || n <= 0 {
			n = 0
		}
		if idPart == "" && n == 0 {
			continue
		}
		return trace.TraceID(idPart), n, true
	}
	return "", 0, false
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

// cachedLocally reports whether the document is resident in this node's
// hot-file cache — the real cache-residency signal the broker's
// CachedLocal input carries, stat-free like the simulator's Peek. With the
// cache off nothing is resident and every candidate pays its full t_data.
func (s *Server) cachedLocally(path string) bool {
	return s.cache != nil && s.cache.Peek(path)
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
// open connections — a parked keep-alive connection is not load.
func (s *Server) snapshotLoads() []core.NodeLoad {
	s.peersMu.RLock()
	n := 0
	for id := range s.peers {
		if id >= n {
			n = id + 1
		}
	}
	s.peersMu.RUnlock()
	if self := s.cfg.ID; self >= n {
		n = self + 1
	}
	loads := s.table.Snapshot(n, s.nowSec())
	loads[s.cfg.ID] = core.NodeLoad{
		Available:       true,
		CPULoad:         float64(s.reqActive.Load()),
		DiskLoad:        float64(s.diskActive.Load()),
		NetLoad:         float64(s.netActive.Load()),
		CPUOpsPerSec:    s.cfg.CPUOpsPerSec,
		DiskBytesPerSec: s.cfg.DiskBytesPerSec,
		NetBytesPerSec:  s.cfg.NetBytesPerSec,
	}
	return loads
}

func (s *Server) peerByID(id int) (Peer, bool) {
	s.peersMu.RLock()
	defer s.peersMu.RUnlock()
	p, ok := s.peers[id]
	return p, ok
}

func parseRedirectCount(query string) int {
	for kv, rest := "", query; rest != ""; {
		kv, rest, _ = strings.Cut(rest, "&")
		if v, ok := strings.CutPrefix(kv, redirectParam+"="); ok {
			if n, err := strconv.Atoi(v); err == nil && n >= 0 {
				return n
			}
		}
	}
	return 0
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
		s.errors.Add(1)
		s.drop("local_io")
		code := httpmsg.StatusNotFound
		if os.IsPermission(err) {
			code = httpmsg.StatusForbidden
		}
		_ = rc.simple(code, nil, httpmsg.ErrorBody(code, "Cannot open document."))
		return code
	}
	return s.writeEntry(rc, req, ent)
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
		n, err := rc.bw.Write(ent.Body)
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
		s.errors.Add(1)
		s.drop("local_io")
		code := httpmsg.StatusNotFound
		if os.IsPermission(err) {
			code = httpmsg.StatusForbidden
		}
		_ = rc.simple(code, nil, httpmsg.ErrorBody(code, "Cannot open document."))
		return code
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
// never turns a replicated document into a 503. Cacheable documents are
// materialized into the hot-file cache — with the source's Last-Modified
// preserved so clients can 304-revalidate foreign documents — and
// concurrent requests for the same cold document coalesce into one fetch
// (singleflight). Documents too big for the cache stream straight from
// the source's socket to the client without ever being held in memory.
// Either way the fetch runs under the node's retry budget, and only once
// the budget is spent across every replica does the client see the
// degradation ladder's last rung: 503 with a Retry-After hint.
func (s *Server) serveRemoteFile(rc *reqConn, req *httpmsg.Request, file storage.File, tctx trace.TraceID) int {
	sources := s.rankedSources(req.Path, file)
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
		return s.relayStream(rc, req, sources, tctx)
	}
	ent, err := s.cache.Fetch(req.Path, s.entryCheck(req.Path, file), func() (cache.Entry, error) {
		return s.fetchWithRetry(sources, req.Path, file.Size, tctx)
	})
	if err != nil {
		return s.degrade503(rc, req)
	}
	return s.writeEntry(rc, req, ent)
}

// rankedSources maps core.RankSources' cheapest-first replica order onto
// the known peers — the failover list the fetch paths walk. Unavailable
// replicas trail the list rather than vanish: when every replica looks
// dead the fetch still tries them, because the health view may be stale.
func (s *Server) rankedSources(path string, file storage.File) []fetchSource {
	d := s.cfg.Oracle.Characterize(path)
	coreReq := core.Request{
		Path:      path,
		Owner:     file.Owner,
		Replicas:  file.Replicas,
		DiskBytes: d.DiskBytes(file.Size),
	}
	loads := s.snapshotLoads()
	out := make([]fetchSource, 0, len(file.ReplicaSet()))
	for _, rep := range core.RankSources(coreReq, s.cfg.ID, s.cfg.ID, loads) {
		if rep == s.cfg.ID {
			continue
		}
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

// finishResponse flushes a fully buffered 200 and accounts for it.
func (s *Server) finishResponse(rc *reqConn, req *httpmsg.Request, sent int64) int {
	if err := rc.bw.Flush(); err != nil {
		return rc.fail()
	}
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
// pooled copy buffer. A HEAD response skips the body entirely and logs zero
// body bytes.
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
			if f, ok := body.(*os.File); ok && size > int64(rc.bw.Available()) {
				// A file that does not fit the buffer leaves from the page
				// cache: the header goes first, then the socket reads the
				// file itself.
				if err = rc.bw.Flush(); err == nil {
					sent, err = rc.meter.sendFile(f, size)
				}
				break
			}
			sent, err = httpmsg.CopyBodyN(rc.bw, body, size)
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
