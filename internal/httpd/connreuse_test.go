package httpd

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sweb/internal/httpmsg"
	"sweb/internal/leakcheck"
)

// serveGoroutines counts the serve goroutines alive and, of those, the
// ones parked between connections, from a dump of every goroutine's stack.
func serveGoroutines() (alive, parked int) {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	return strings.Count(stacks, "httpd.(*Server).serveConns("),
		strings.Count(stacks, "httpd.(*Server).awaitConn(")
}

// TestReusedConnStartsClean serves three connections in turn through one
// parked serve goroutine and checks that nothing the first left behind
// reaches the next: not the bytes still buffered, not the header map's
// If-Modified-Since, not the request count KeepAliveMax is checked
// against, not the armed read deadline, not the connection id.
func TestReusedConnStartsClean(t *testing.T) {
	const idle = 400 * time.Millisecond
	srv, doc := startSoloNode(t, func(c *Config) { c.KeepAliveMax, c.IdleTimeout = 2, idle })
	parked := func() {
		t.Helper()
		waitFor(t, 5*time.Second, "one serve goroutine, parked", func() bool {
			alive, parked := serveGoroutines()
			return alive == 1 && parked == 1
		})
	}
	dial := func() (net.Conn, *bufio.Reader) {
		c := dialNode(t, srv.Addr())
		return c, bufio.NewReader(c)
	}
	read := func(br *bufio.Reader, what string) *httpmsg.Response {
		t.Helper()
		resp, err := httpmsg.ReadResponse(br, 1<<20)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return resp
	}

	// 1: a conditional HTTP/1.1 GET (304), a plain one (200, the last
	// KeepAliveMax allows) and the first half of a third head, which stays
	// unread in the server's buffer when the connection ends.
	c1, br1 := dial()
	ims := httpmsg.FormatHTTPDate(time.Now().Add(time.Hour))
	fmt.Fprintf(c1, "GET %s HTTP/1.1\r\nHost: x\r\nIf-Modified-Since: %s\r\n\r\n"+
		"GET %s HTTP/1.1\r\nHost: x\r\n\r\nGET /docs/left HTTP/1.1\r\nX-Half: ", doc, ims, doc)
	if r := read(br1, "conditional GET"); r.StatusCode != httpmsg.StatusNotModified {
		t.Fatalf("conditional GET: status %d, want 304", r.StatusCode)
	}
	if r := read(br1, "plain GET"); r.StatusCode != httpmsg.StatusOK || r.Header.Get("Connection") != "close" {
		t.Fatalf("plain GET at KeepAliveMax: status %d Connection %q, want 200 close",
			r.StatusCode, r.Header.Get("Connection"))
	}
	c1.Close()
	parked()

	// 2: an HTTP/1.0 GET gets the whole document and Connection: close.
	c2, br2 := dial()
	io.WriteString(c2, "GET "+doc+" HTTP/1.0\r\n\r\n")
	r := read(br2, "HTTP/1.0 GET")
	if r.Proto != "HTTP/1.0" || r.StatusCode != httpmsg.StatusOK || len(r.Body) != 1024 ||
		r.Header.Get("Connection") != "close" {
		t.Fatalf("HTTP/1.0 GET: %s %d, %d body bytes, Connection %q; want HTTP/1.0 200, 1024, close",
			r.Proto, r.StatusCode, len(r.Body), r.Header.Get("Connection"))
	}
	c2.Close()
	parked()

	// 3: one HTTP/1.1 GET keeps the connection (one request, not the
	// earlier connection's two), and the idle socket is then reaped at
	// IdleTimeout: a read deadline the reqConn believed armed from the
	// last socket would leave this one unbounded.
	c3, br3 := dial()
	io.WriteString(c3, "GET "+doc+" HTTP/1.1\r\nHost: x\r\n\r\n")
	if r := read(br3, "HTTP/1.1 GET"); r.StatusCode != httpmsg.StatusOK || r.Header.Get("Connection") == "close" {
		t.Fatalf("HTTP/1.1 GET on a fresh connection: status %d Connection %q, want 200 kept open",
			r.StatusCode, r.Header.Get("Connection"))
	}
	if alive, _ := serveGoroutines(); alive != 1 {
		t.Fatalf("%d serve goroutines, want the one that served all three connections", alive)
	}
	t0 := time.Now()
	if _, err := br3.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection: %v, want the server's close", err)
	}
	if waited := time.Since(t0); waited < idle*3/4 || waited > 3*idle {
		t.Fatalf("idle connection closed after %v, want about %v", waited, idle)
	}
	if n := srv.Stats().IdleReaped; n != 1 {
		t.Fatalf("idle_reaped %d, want 1", n)
	}

	// Four requests on three connections: each connection has its own id.
	ids := map[int64]int{}
	for _, rec := range srv.FlightDump().Records {
		ids[rec.ConnID]++
	}
	if len(ids) != 3 {
		t.Fatalf("flight records per connection id: %v, want three distinct ids", ids)
	}
	for _, n := range ids {
		if n != 1 && n != 2 {
			t.Fatalf("flight records per connection id: %v", ids)
		}
	}
}

// TestShutdownEndsParkedServeGoroutines runs 64 one-request connections,
// eight at a time, so that several serve goroutines are parked, then
// shuts the node down. Shutdown must not wait out IdleTimeout for them,
// and once Close returns no goroutine or descriptor may be left.
func TestShutdownEndsParkedServeGoroutines(t *testing.T) {
	leakcheck.Check(t)
	srv, doc := startSoloNode(t, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				c, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
				if err != nil {
					t.Error(err)
					return
				}
				_ = c.SetDeadline(time.Now().Add(5 * time.Second))
				io.WriteString(c, "GET "+doc+" HTTP/1.0\r\n\r\n")
				resp, err := httpmsg.ReadResponse(bufio.NewReader(c), 1<<20)
				c.Close()
				if err != nil || resp.StatusCode != httpmsg.StatusOK {
					t.Errorf("one-request connection: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, 5*time.Second, "a serve goroutine parked", func() bool {
		_, parked := serveGoroutines()
		return parked > 0
	})
	t0 := time.Now()
	if !srv.Shutdown(5 * time.Second) {
		t.Fatal("Shutdown did not drain")
	}
	srv.Close()
	if took := time.Since(t0); took > time.Second {
		t.Fatalf("Shutdown and Close took %v with serve goroutines parked", took)
	}
	// A goroutine that has signalled the WaitGroup may still be returning.
	waitFor(t, time.Second, "every serve goroutine ended", func() bool {
		alive, _ := serveGoroutines()
		return alive == 0
	})
}

// TestConnTableJSON pins the conn table's JSON: remote addresses are now
// formatted when the table is read, not when the connection is accepted,
// and must read as they did.
func TestConnTableJSON(t *testing.T) {
	srv, doc := startSoloNode(t, nil)
	served := dialNode(t, srv.Addr())
	keepAliveGet(t, served, "GET", doc, nil)
	if _, err := httpmsg.ReadResponse(bufio.NewReader(served), 1<<20); err != nil {
		t.Fatal(err)
	}
	fresh := dialNode(t, srv.Addr())
	waitFor(t, 5*time.Second, "both connections tracked", func() bool { return len(srv.ConnTable()) == 2 })
	got, err := json.Marshal(srv.ConnTable())
	if err != nil {
		t.Fatal(err)
	}
	got = regexp.MustCompile(`"age_seconds":[0-9.e+-]+`).ReplaceAll(got, []byte(`"age_seconds":0`))
	want := `[{"id":1,"remote":"` + served.LocalAddr().String() + `","age_seconds":0,"served":1,"active":false},` +
		`{"id":2,"remote":"` + fresh.LocalAddr().String() + `","age_seconds":0,"served":0,"active":false}]`
	if string(got) != want {
		t.Fatalf("conn table JSON\n got %s\nwant %s", got, want)
	}
}
