package httpd

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sweb/internal/heat"
	"sweb/internal/httpmsg"
)

// deadlineListener hands out connections that count every deadline armed
// on them.
type deadlineListener struct {
	net.Listener
	arms atomic.Int64
}

func (l *deadlineListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return deadlineConn{Conn: c, arms: &l.arms}, nil
}

type deadlineConn struct {
	net.Conn
	arms *atomic.Int64
}

func (c deadlineConn) SetDeadline(t time.Time) error {
	c.arms.Add(1)
	return c.Conn.SetDeadline(t)
}

func (c deadlineConn) SetReadDeadline(t time.Time) error {
	c.arms.Add(1)
	return c.Conn.SetReadDeadline(t)
}

func (c deadlineConn) SetWriteDeadline(t time.Time) error {
	c.arms.Add(1)
	return c.Conn.SetWriteDeadline(t)
}

// TestKeepAliveHitsArmFewDeadlines counts the socket deadlines a stream of
// keep-alive hits arms. Each hit used to arm three (idle read, request
// read, write); an armed deadline now stands while it fires within one
// eighth of its span of where a fresh one would, and a head already
// buffered needs no request-phase read deadline, so 1000 hits arm at most
// one per hundred. A head that arrives in two writes with a pause between
// them is still parsed and answered.
func TestKeepAliveHitsArmFewDeadlines(t *testing.T) {
	srv, paths := newSoloNode(t, 2, func(c *Config) { c.KeepAliveMax = -1 })
	ln := &deadlineListener{Listener: srv.ln}
	srv.ln = ln
	srv.Start()
	conn := dialNode(t, srv.Addr())
	br := bufio.NewReader(conn)
	req := []byte("GET " + paths[0] + " HTTP/1.1\r\nHost: x\r\n\r\n")
	expect := func(what string) {
		t.Helper()
		resp, err := httpmsg.ReadResponse(br, 1<<20)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if resp.StatusCode != httpmsg.StatusOK || len(resp.Body) != 1024 {
			t.Fatalf("%s: status=%d len=%d", what, resp.StatusCode, len(resp.Body))
		}
	}
	const hits = 1000
	for i := 0; i < hits; i++ {
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		expect("hit")
	}
	arms := ln.arms.Load()
	t.Logf("%d deadlines armed over %d keep-alive hits", arms, hits)
	if arms > hits/100 {
		t.Fatalf("%d deadlines armed over %d hits, want at most %d", arms, hits, hits/100)
	}

	for _, cut := range []int{10, len(req) - 2} {
		if _, err := conn.Write(req[:cut]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
		if _, err := conn.Write(req[cut:]); err != nil {
			t.Fatal(err)
		}
		expect(fmt.Sprintf("head split at byte %d", cut))
	}
}

// TestRetainedPathsNeverAliasReadBuffer drives many keep-alive connections
// at one node, pipelined and sequential, mixing documents it holds with
// same-length paths it does not (404s) and changing header values. A
// parsed path that aliased a connection's reused read buffer would change
// under a retained copy as later requests overwrite the buffer; instead
// every path the flight recorder and the heat sketch keep must be one
// that was requested, with the status its class earns. Run it under -race.
func TestRetainedPathsNeverAliasReadBuffer(t *testing.T) {
	srv, known := newSoloNode(t, 8, func(c *Config) { c.KeepAliveMax = -1 })
	srv.Start()
	missing := make([]string, len(known))
	requested := map[string]bool{"/sweb/flight": true, "/sweb/heat": true}
	isKnown := map[string]bool{}
	for i, p := range known {
		missing[i] = strings.Replace(p, "/docs/u", "/docs/x", 1)
		requested[p], requested[missing[i]], isKnown[p] = true, true, true
	}
	later := httpmsg.FormatHTTPDate(time.Now().Add(time.Hour))

	const conns, rounds = 6, 40
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs <- driveMixed(srv.Addr(), c, rounds, known, missing, later)
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	var fl struct {
		Records, Notable []struct {
			Path   string
			Status int
		}
	}
	var ht heat.Dump
	for path, v := range map[string]any{"/sweb/flight": &fl, "/sweb/heat": &ht} {
		code, body := get(t, srv.Addr(), path)
		if code != httpmsg.StatusOK {
			t.Fatalf("GET %s = %d", path, code)
		}
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	recs := append(fl.Records, fl.Notable...)
	if len(recs) == 0 || len(ht.Entries) == 0 {
		t.Fatalf("nothing retained: %d flight records, %d heat entries", len(recs), len(ht.Entries))
	}
	for _, r := range recs {
		switch {
		case !requested[r.Path]:
			t.Errorf("flight record path %q was never requested", r.Path)
		case strings.HasPrefix(r.Path, "/sweb/"):
		case isKnown[r.Path] != (r.Status == httpmsg.StatusOK || r.Status == httpmsg.StatusNotModified):
			t.Errorf("flight record %q has status %d", r.Path, r.Status)
		}
	}
	for _, e := range ht.Entries {
		if !isKnown[e.Path] {
			t.Errorf("heat entry path %q is not a served document", e.Path)
		}
	}
}

// driveMixed runs rounds of requests on one keep-alive connection: a
// pipelined burst of four, then the same four one by one. Conditional GETs
// of held documents answer 304, absent documents 404.
func driveMixed(addr string, c, rounds int, known, missing []string, later string) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(conn)
	for r := 0; r < rounds; r++ {
		type want struct {
			path string
			code int
		}
		var batch []want
		var reqs []string
		for k := 0; k < 4; k++ {
			i := (c + r + k) % len(known)
			w, extra := want{known[i], httpmsg.StatusOK}, ""
			switch (r + k) % 3 {
			case 1:
				w = want{missing[i], httpmsg.StatusNotFound}
			case 2:
				w.code, extra = httpmsg.StatusNotModified, "If-Modified-Since: "+later+"\r\n"
			}
			batch = append(batch, w)
			reqs = append(reqs, fmt.Sprintf("GET %s HTTP/1.1\r\nHost: n%d\r\nX-Seq: %d.%d.%d\r\n%s\r\n",
				w.path, c, c, r, k, extra))
		}
		check := func(w want) error {
			resp, err := httpmsg.ReadResponse(br, 1<<20)
			if err != nil {
				return fmt.Errorf("conn %d round %d %s: %v", c, r, w.path, err)
			}
			if resp.StatusCode != w.code {
				return fmt.Errorf("conn %d round %d %s: status %d, want %d", c, r, w.path, resp.StatusCode, w.code)
			}
			return nil
		}
		if _, err := io.WriteString(conn, strings.Join(reqs, "")); err != nil {
			return err
		}
		for _, w := range batch {
			if err := check(w); err != nil {
				return err
			}
		}
		for k, w := range batch {
			if _, err := io.WriteString(conn, reqs[k]); err != nil {
				return err
			}
			if err := check(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestShutdownEndsParkedConnectionAtOnce: a keep-alive connection parked
// between requests, with the idle deadline its hits left standing well in
// the future, still closes as soon as a drain begins: nudgeConns sets the
// socket's deadline directly, whatever the serve loop last armed.
func TestShutdownEndsParkedConnectionAtOnce(t *testing.T) {
	srv, doc := startSoloNode(t, func(c *Config) { c.KeepAliveMax = -1 })
	conn := dialNode(t, srv.Addr())
	br := bufio.NewReader(conn)
	for i := 0; i < 3; i++ {
		keepAliveGet(t, conn, "GET", doc, nil)
		if resp, err := httpmsg.ReadResponse(br, 1<<20); err != nil || resp.StatusCode != httpmsg.StatusOK {
			t.Fatalf("hit %d: %v %v", i, resp, err)
		}
	}
	start := time.Now()
	if !srv.Shutdown(5 * time.Second) {
		t.Fatal("the node did not drain")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("drain took %v: the parked connection sat out its idle deadline", d)
	}
	if _, err := br.Peek(1); err == nil {
		t.Fatal("the parked connection is still open after the drain")
	}
}
