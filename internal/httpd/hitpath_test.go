package httpd

import (
	"bufio"
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"sweb/internal/core"
	"sweb/internal/httpmsg"
	"sweb/internal/metrics"
)

// maxAllocsPerHit pins the server-side heap allocations of one keep-alive
// cache hit on a 1 KiB document. Before the resolved telemetry handles,
// the fixed-field header encoder and the per-connection request it was
// 104, and 9 before the hit stopped allocating: the stat now runs on the
// entry's resolved path into a stack buffer, the staleness checks are
// bound once per connection, the load snapshot and cost table live in
// per-connection scratch, the path is the manifest's own string and a
// header repeating its last value keeps that value's string. It reads
// 0.0 on go1.24; the bound leaves room for background work spread over
// the hits (a gossip round, the once-a-second Date) and for a toolchain to
// differ.
const maxAllocsPerHit = 2

// TestCachedHitAllocations drives one HTTP/1.1 connection at a solo node
// with a client that itself allocates nothing — a prebuilt request, a
// fixed response buffer — so the process-wide malloc count over the run is
// the server's.
func TestCachedHitAllocations(t *testing.T) {
	srv, doc := startSoloNode(t, func(c *Config) { c.KeepAliveMax = -1 })
	conn := dialNode(t, srv.Addr())
	reqBytes := []byte("GET " + doc + " HTTP/1.1\r\nHost: " + srv.Addr() + "\r\n\r\n")

	// The first exchange sizes the response: every later one is the same
	// length (fixed-width dates, same document). Its raw bytes are counted
	// as they are parsed.
	if _, err := conn.Write(reqBytes); err != nil {
		t.Fatal(err)
	}
	raw := &countingReader{r: conn}
	first, err := httpmsg.ReadResponse(bufio.NewReaderSize(raw, 16), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if first.StatusCode != httpmsg.StatusOK || len(first.Body) != 1024 {
		t.Fatalf("status=%d len=%d", first.StatusCode, len(first.Body))
	}
	buf := make([]byte, raw.n)

	hit := func() {
		if _, err := conn.Write(reqBytes); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		hit()
	}
	if !bytes.HasPrefix(buf, []byte("HTTP/1.1 200 OK\r\n")) || !bytes.HasSuffix(buf, first.Body) {
		t.Fatalf("warm-up response misframed: %q", buf[:64])
	}
	const hits = 5000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < hits; i++ {
		hit()
	}
	runtime.ReadMemStats(&m1)
	perHit := float64(m1.Mallocs-m0.Mallocs) / hits
	t.Logf("%.1f allocations per cached keep-alive hit", perHit)
	if perHit > maxAllocsPerHit {
		t.Fatalf("%.1f allocations per cached hit, want at most %d", perHit, maxAllocsPerHit)
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestNoHeaderBleedAcrossRequests sends a conditional GET (which a cache
// hit answers 304) and then an unconditional one down the same connection,
// pipelined and sequentially. The connection's one Request value is
// refilled per request: the second request must get the full document,
// never the first one's 304.
func TestNoHeaderBleedAcrossRequests(t *testing.T) {
	srv, doc := startSoloNode(t, func(c *Config) { c.KeepAliveMax = -1 })
	if code, _ := get(t, srv.Addr(), doc); code != httpmsg.StatusOK {
		t.Fatalf("warm-up status %d", code)
	}
	cond := "GET " + doc + " HTTP/1.1\r\nHost: x\r\n" +
		"If-Modified-Since: " + httpmsg.FormatHTTPDate(time.Now().Add(time.Hour)) + "\r\n" +
		"X-Sweb-Trace: cafe1234\r\n\r\n"
	plain := "GET " + doc + " HTTP/1.1\r\nHost: x\r\n\r\n"

	conn := dialNode(t, srv.Addr())
	br := bufio.NewReader(conn)
	expect := func(round string, wantStatus, wantLen int) {
		t.Helper()
		resp, err := httpmsg.ReadResponse(br, 1<<20)
		if err != nil {
			t.Fatalf("%s: %v", round, err)
		}
		if resp.StatusCode != wantStatus || len(resp.Body) != wantLen {
			t.Fatalf("%s: status=%d len=%d, want %d/%d", round, resp.StatusCode, len(resp.Body), wantStatus, wantLen)
		}
	}
	for i := 0; i < 20; i++ {
		// Pipelined: both requests in one write.
		if _, err := io.WriteString(conn, cond+plain); err != nil {
			t.Fatal(err)
		}
		expect("pipelined conditional", httpmsg.StatusNotModified, 0)
		expect("pipelined unconditional", httpmsg.StatusOK, 1024)
		// Sequential: the second goes out after the first is answered.
		if _, err := io.WriteString(conn, cond); err != nil {
			t.Fatal(err)
		}
		expect("sequential conditional", httpmsg.StatusNotModified, 0)
		if _, err := io.WriteString(conn, plain); err != nil {
			t.Fatal(err)
		}
		expect("sequential unconditional", httpmsg.StatusOK, 1024)
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden from this run")

// seriesKeys scrapes the node in-process and returns the sorted
// name{labels} key of every sample. The Go version label is masked, and
// the two histograms fed by gossip timing are left out: whether a second
// broadcast landed mid-test is the scheduler's business, not this test's.
func seriesKeys(t *testing.T, srv *Server) []string {
	t.Helper()
	var keys []string
	for _, s := range scrape(t, srv) {
		switch {
		case strings.HasPrefix(s.Name, mGossipInterval), strings.HasPrefix(s.Name, mGossipDrift):
			continue
		case s.Name == "sweb_build_info":
			s.Labels = metrics.Labels{"go_version": "*"}
		}
		keys = append(keys, s.Key())
	}
	sort.Strings(keys)
	return keys
}

// checkGolden compares keys with testdata/<name>.golden, one key per line.
func checkGolden(t *testing.T, name string, keys []string) {
	t.Helper()
	file := filepath.Join("testdata", name+".golden")
	got := strings.Join(keys, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wanted := make(map[string]bool)
	for _, k := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		wanted[k] = true
	}
	for _, k := range keys {
		if !wanted[k] {
			t.Errorf("%s: unexpected series %s", name, k)
		}
		delete(wanted, k)
	}
	for k := range wanted {
		t.Errorf("%s: series %s missing", name, k)
	}
}

// TestExpositionSeriesIdentity pins which series a node exposes and when.
// The golden lists were captured from the commit before the telemetry
// handles were resolved at start-up: a fresh node must not pre-register
// any per-event, per-phase, per-cause or per-path series, and a hit, a 404
// and a 302 must create exactly the series they used to.
func TestExpositionSeriesIdentity(t *testing.T) {
	node, _, remoteDoc := startPairRR(t, func(c *Config) {
		c.Policy = core.FileLocality{P: core.DefaultParams()}
	})
	checkGolden(t, "series_fresh", seriesKeys(t, node))

	// File locality 302s only to a peer whose load broadcast has arrived.
	deadline := time.Now().Add(5 * time.Second)
	for !knows(node, 1) {
		if time.Now().After(deadline) {
			t.Fatal("peer broadcast never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// One connection, so the serve loop finishes each request's bookkeeping
	// before it reads the next: once the closing repeat of the first
	// request — which can create no series of its own — is answered, every
	// series of the three before it exists.
	conn := dialNode(t, node.Addr())
	br := bufio.NewReader(conn)
	for _, step := range []struct {
		path string
		want int
	}{
		{"/docs/local.html", httpmsg.StatusOK},
		{"/docs/nope.html", httpmsg.StatusNotFound},
		{remoteDoc, httpmsg.StatusMovedTemporarily},
		{"/docs/local.html", httpmsg.StatusOK},
	} {
		keepAliveGet(t, conn, "GET", step.path, nil)
		resp, err := httpmsg.ReadResponse(br, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != step.want {
			t.Fatalf("GET %s = %d, want %d", step.path, resp.StatusCode, step.want)
		}
	}
	checkGolden(t, "series_served", seriesKeys(t, node))
}
