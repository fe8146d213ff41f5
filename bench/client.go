package main

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The load generator's HTTP client. It shares no code with the server
// under test (no internal/httpmsg), so a change to the server's parser
// cannot speed up or break the measuring side, and the status, length and
// CRC checks are an independent opinion on what a correct response is.

const (
	requestTimeout = 10 * time.Second
	// docMTime is stamped on every materialized file, so Last-Modified is
	// known without asking and a conditional GET can be built offline.
	docMTimeHTTP = "Thu, 01 Jan 2026 00:00:00 GMT"
)

var docMTime = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

var (
	hdrContentLength    = []byte("Content-Length")
	hdrConnection       = []byte("Connection")
	hdrLocation         = []byte("Location")
	hdrTransferEncoding = []byte("Transfer-Encoding")
	valClose            = []byte("close")
	schemePrefix        = []byte("http://")
)

// connGauge counts the generator's open connections and remembers the
// most it ever held at once: the acceptance check that load never exceeds
// one connection per worker.
type connGauge struct {
	open, high atomic.Int32
}

func (g *connGauge) inc() {
	n := g.open.Add(1)
	for {
		h := g.high.Load()
		if n <= h || g.high.CompareAndSwap(h, n) {
			return
		}
	}
}

func (g *connGauge) dec() { g.open.Add(-1) }

// workerStats is what one worker saw; merged into a windowResult.
type workerStats struct {
	attempted, failed int
	bytes             int64
	conns             int
	latMS, ttfbMS     []float64 // verified completions only
	lateMS            []float64 // how late each request started: after its due instant, or after the previous completion
	lastEnd           time.Time
	firstErr          error
}

type worker struct {
	addrs     []string // node id -> host:port
	str       *stream
	connClose bool
	gauge     *connGauge
	log       *spanLog // nil: tracing off

	conn     net.Conn
	connNode int
	br       *bufio.Reader
	reqBuf   []byte
	bodyBuf  []byte
	loc      []byte
	st       workerStats
}

func newWorker(addrs []string, str *stream, connClose bool, gauge *connGauge, log *spanLog) *worker {
	return &worker{
		addrs: addrs, str: str, connClose: connClose, gauge: gauge, log: log,
		br:      bufio.NewReaderSize(nil, 4096),
		bodyBuf: make([]byte, 64<<10),
		reqBuf:  make([]byte, 0, 512),
		st: workerStats{
			latMS:  make([]float64, 0, 1<<18),
			ttfbMS: make([]float64, 0, 1<<18),
			lateMS: make([]float64, 0, 1<<18),
		},
	}
}

func (w *worker) closeConn() {
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
		w.gauge.dec()
	}
}

// ensureConn makes the worker's single connection point at node, closing
// the one it holds if that goes elsewhere.
func (w *worker) ensureConn(node int, parent, trace int64) error {
	if w.conn != nil && w.connNode == node {
		return nil
	}
	w.closeConn()
	t0 := time.Now()
	c, err := net.DialTimeout("tcp", w.addrs[node], requestTimeout)
	if err != nil {
		return err
	}
	w.log.add(parent, trace, "connect", t0, time.Now())
	w.conn, w.connNode = c, node
	w.br.Reset(c)
	w.st.conns++
	w.gauge.inc()
	return nil
}

type respHead struct {
	status    int
	clen      int64
	closeConn bool
}

func (w *worker) readHead() (respHead, error) {
	h := respHead{clen: -1}
	line, err := w.br.ReadSlice('\n')
	if err != nil {
		return h, err
	}
	// "HTTP/1.x NNN reason"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return h, fmt.Errorf("malformed status line %q", line)
	}
	for _, c := range line[9:12] {
		if c < '0' || c > '9' {
			return h, fmt.Errorf("malformed status line %q", line)
		}
		h.status = h.status*10 + int(c-'0')
	}
	w.loc = w.loc[:0]
	for {
		line, err = w.br.ReadSlice('\n')
		if err != nil {
			return h, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			return h, nil
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return h, fmt.Errorf("malformed header line %q", line)
		}
		key, val := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case bytes.EqualFold(key, hdrContentLength):
			h.clen = 0
			for _, c := range val {
				if c < '0' || c > '9' {
					return h, fmt.Errorf("bad Content-Length %q", val)
				}
				h.clen = h.clen*10 + int64(c-'0')
			}
		case bytes.EqualFold(key, hdrConnection):
			h.closeConn = bytes.EqualFold(val, valClose)
		case bytes.EqualFold(key, hdrLocation):
			w.loc = append(w.loc, val...)
		case bytes.EqualFold(key, hdrTransferEncoding):
			return h, fmt.Errorf("unexpected Transfer-Encoding %q on a sized document", val)
		}
	}
}

// readBody consumes exactly n body bytes and returns their CRC32.
func (w *worker) readBody(n int64) (uint32, error) {
	var crc uint32
	for n > 0 {
		chunk := w.bodyBuf
		if int64(len(chunk)) > n {
			chunk = chunk[:n]
		}
		m, err := w.br.Read(chunk)
		crc = crc32.Update(crc, crc32.IEEETable, chunk[:m])
		n -= int64(m)
		if err != nil && n > 0 {
			return crc, err
		}
	}
	return crc, nil
}

// resolveLocation maps a 302's Location onto (node, request target).
func (w *worker) resolveLocation() (int, []byte, error) {
	rest, ok := bytes.CutPrefix(w.loc, schemePrefix)
	slash := bytes.IndexByte(rest, '/')
	if !ok || slash < 0 {
		return 0, nil, fmt.Errorf("unusable Location %q", w.loc)
	}
	for node, addr := range w.addrs {
		if string(rest[:slash]) == addr {
			return node, rest[slash:], nil
		}
	}
	return 0, nil, fmt.Errorf("Location %q names no node of this cluster", w.loc)
}

func (w *worker) fail(err error) {
	w.st.failed++
	if w.st.firstErr == nil {
		w.st.firstErr = err
	}
	w.closeConn()
}

// fetch performs logical request idx: at most one 302 hop, like a 1996
// browser, then status, length and checksum are held against the manifest.
// due is the open-loop send instant (zero in a closed loop); latency runs
// from due, or from the first request byte written, to the last body byte.
func (w *worker) fetch(idx int, r request, due time.Time) {
	d := &w.str.Docs[r.Doc]
	trace := int64(idx)
	w.st.attempted++
	root := w.log.reserve()
	begin := due
	if begin.IsZero() {
		begin = time.Now()
	}
	origin := due
	node, target := r.Node, []byte(nil)
	parent := root
	var hopID int64
	var hopFrom time.Time
	for hop := 0; ; hop++ {
		if err := w.ensureConn(node, parent, trace); err != nil {
			w.fail(err)
			break
		}
		t0 := time.Now()
		if hop > 0 {
			w.log.finish(hopID, root, trace, "hop", hopFrom, t0)
		}
		if origin.IsZero() {
			origin = t0
		}
		b := append(w.reqBuf[:0], "GET "...)
		if target == nil {
			b = append(b, d.Path...)
		} else {
			b = append(b, target...)
		}
		b = append(b, " HTTP/1.1\r\nHost: "...)
		b = append(b, w.addrs[node]...)
		b = append(b, "\r\n"...)
		if w.connClose {
			b = append(b, "Connection: close\r\n"...)
		}
		if r.Cond {
			b = append(b, "If-Modified-Since: "+docMTimeHTTP+"\r\n"...)
		}
		b = append(b, "\r\n"...)
		w.reqBuf = b
		_ = w.conn.SetDeadline(t0.Add(requestTimeout))
		if _, err := w.conn.Write(b); err != nil {
			w.fail(err)
			break
		}
		t1 := time.Now()
		w.log.add(root, trace, "write", t0, t1)
		if _, err := w.br.Peek(1); err != nil {
			w.fail(err)
			break
		}
		t2 := time.Now()
		w.log.add(root, trace, "wait", t1, t2)
		h, err := w.readHead()
		if err != nil {
			w.fail(err)
			break
		}
		if h.clen < 0 {
			w.fail(fmt.Errorf("%s: status %d without Content-Length", d.Path, h.status))
			break
		}
		crc, err := w.readBody(h.clen)
		if err != nil {
			w.fail(err)
			break
		}
		t3 := time.Now()
		w.log.add(root, trace, "body", t2, t3)
		if h.closeConn || w.connClose {
			w.closeConn()
		}
		if h.status == 302 && hop == 0 {
			node, target, err = w.resolveLocation()
			if err != nil {
				w.fail(err)
				break
			}
			hopFrom, hopID = t3, w.log.reserve()
			parent = hopID
			continue
		}
		switch {
		case r.Cond && h.status == 304 && h.clen == 0:
		case !r.Cond && h.status == 200 && h.clen == d.Size && crc == d.CRC:
			w.st.bytes += h.clen
		default:
			err = fmt.Errorf("%s (cond=%v): status %d, length %d (want %d), crc %08x (want %08x)",
				d.Path, r.Cond, h.status, h.clen, d.Size, crc, d.CRC)
		}
		if err != nil {
			w.fail(err)
			break
		}
		w.st.latMS = append(w.st.latMS, float64(t3.Sub(origin))/1e6)
		w.st.ttfbMS = append(w.st.ttfbMS, float64(t2.Sub(origin))/1e6)
		break
	}
	end := time.Now()
	w.st.lastEnd = end
	w.log.finish(root, 0, trace, "request", begin, end)
}

// clock is the time source of the open-loop scheduler; tests swap it.
type clock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

// wallClock sleeps in nanosleep(2), not time.Sleep: a Go timer that
// fires while every P is idle is only noticed at the netpoller's
// millisecond granularity, which would start the median request half a
// millisecond late and charge the server for it.
var wallClock = clock{now: time.Now, sleep: func(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil)
}}

// runOpenLoop issues requests offset, offset+stride, ... below total on a
// fixed schedule: request i is due at t0 + i*interval whether or not the
// previous one has finished. A worker that falls behind starts the next
// request at once, and because do() is handed the due instant, the wait
// shows up in that request's latency.
func runOpenLoop(c clock, t0 time.Time, interval time.Duration, total, stride, offset int,
	do func(i int, due time.Time, late time.Duration)) {
	for i := offset; i < total; i += stride {
		due := t0.Add(time.Duration(i) * interval)
		if d := due.Sub(c.now()); d > 0 {
			c.sleep(d)
		}
		late := c.now().Sub(due)
		if late < 0 {
			late = 0
		}
		do(i, due, late)
	}
}

// windowResult is one measured window, all workers merged.
type windowResult struct {
	attempted, failed int
	completions       int
	bytes             int64
	wall              float64 // seconds, window start to last completion
	latMS, ttfbMS     []float64
	lateMS            []float64 // ascending
	conns             int
	highWater         int
	spans             []span
	firstErr          error
}

func (r *windowResult) rps() float64 { return ratio(float64(r.completions), r.wall) }

// runWindow drives the workload against addrs for dur with C workers, one
// connection each. With epoch non-zero the workers keep spans.
func runWindow(addrs []string, str *stream, def liveDef, workers int, dur time.Duration, traceEpoch time.Time) *windowResult {
	gauge := &connGauge{}
	ws := make([]*worker, workers)
	for i := range ws {
		var log *spanLog
		if !traceEpoch.IsZero() {
			log = newSpanLog(traceEpoch, i, workers+1) // lane `workers` is the caller's own log
		}
		ws[i] = newWorker(addrs, str, def.connClose, gauge, log)
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			defer w.closeConn()
			if def.openRate > 0 {
				interval := time.Duration(float64(time.Second) / def.openRate)
				total := int(def.openRate * dur.Seconds())
				runOpenLoop(wallClock, t0, interval, total, workers, i, func(idx int, due time.Time, late time.Duration) {
					w.st.lateMS = append(w.st.lateMS, float64(late)/1e6)
					w.fetch(idx, str.At(idx), due)
				})
				return
			}
			// Closed loop: the next request goes out when the previous
			// one is done. How long the generator itself takes to turn
			// around is its lateness here.
			deadline := t0.Add(dur)
			for j := 0; ; j++ {
				now := time.Now()
				if !now.Before(deadline) {
					break
				}
				if j > 0 {
					w.st.lateMS = append(w.st.lateMS, float64(now.Sub(w.st.lastEnd))/1e6)
				}
				idx := j*workers + i
				w.fetch(idx, str.At(idx), time.Time{})
			}
		}(i, w)
	}
	wg.Wait()
	return mergeWorkers(ws, t0, gauge)
}

func mergeWorkers(ws []*worker, t0 time.Time, gauge *connGauge) *windowResult {
	res := &windowResult{highWater: int(gauge.high.Load())}
	last := t0
	for _, w := range ws {
		st := &w.st
		res.attempted += st.attempted
		res.failed += st.failed
		res.completions += len(st.latMS)
		res.bytes += st.bytes
		res.conns += st.conns
		res.latMS = append(res.latMS, st.latMS...)
		res.ttfbMS = append(res.ttfbMS, st.ttfbMS...)
		res.lateMS = append(res.lateMS, st.lateMS...)
		if st.lastEnd.After(last) {
			last = st.lastEnd
		}
		if res.firstErr == nil {
			res.firstErr = st.firstErr
		}
		if w.log != nil {
			res.spans = append(res.spans, w.log.spans...)
		}
	}
	res.wall = last.Sub(t0).Seconds()
	sort.Float64s(res.latMS)
	sort.Float64s(res.ttfbMS)
	sort.Float64s(res.lateMS)
	return res
}

// warm fetches every document once through every node on one connection,
// so caches hold what they can and each node has relayed or redirected at
// least once before anything is timed. Any failure aborts the run: a
// cluster that cannot serve its own corpus is not worth measuring.
func warm(addrs []string, str *stream, connClose bool) error {
	w := newWorker(addrs, str, connClose, &connGauge{}, nil)
	defer w.closeConn()
	for node := range addrs {
		for d := range str.Docs {
			w.fetch(d, request{Doc: d, Node: node}, time.Time{})
		}
	}
	if w.st.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed: %w", w.st.failed, w.st.attempted, w.st.firstErr)
	}
	return nil
}
