package httpd

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sweb/internal/accesslog"
	"sweb/internal/core"
	"sweb/internal/httpmsg"
	"sweb/internal/storage"
)

// syncBuffer is an access log's sink, safe to read while the node writes.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

// take returns what was written since the last take.
func (s *syncBuffer) take() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.b.String()
	s.b.Reset()
	return out
}

// brokenConn is a client that sends one request and then takes no bytes:
// every write fails, as on a connection the peer has reset.
type brokenConn struct{ r *strings.Reader }

func (c *brokenConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *brokenConn) Write([]byte) (int, error)        { return 0, errors.New("connection reset by peer") }
func (c *brokenConn) Close() error                     { return nil }
func (c *brokenConn) LocalAddr() net.Addr              { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }
func (c *brokenConn) RemoteAddr() net.Addr             { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1} }
func (c *brokenConn) SetDeadline(time.Time) error      { return nil }
func (c *brokenConn) SetReadDeadline(time.Time) error  { return nil }
func (c *brokenConn) SetWriteDeadline(time.Time) error { return nil }

// goldenModTime is every document's mtime, so Last-Modified is fixed.
var goldenModTime = time.Date(1996, 4, 15, 12, 0, 0, 0, time.UTC)

// responseKind is one request of the golden run: raw bytes sent to a node.
type responseKind struct {
	name string
	node int
	raw  string
	// broken sends the request over a brokenConn instead of a socket.
	broken bool
}

// The golden cluster's documents. Node 2 is a configured peer nobody
// listens for; node 3 is in the manifest but not configured.
var goldenFiles = []storage.File{
	{Path: "/docs/hot.html", Size: 1 << 10, Owner: 0},
	{Path: "/docs/big.bin", Size: 64 << 10, Owner: 0}, // over the 32 KiB cache: streamed
	{Path: "/docs/missing.html", Size: 1 << 10, Owner: 0},
	{Path: "/docs/locked.html", Size: 1 << 10, Owner: 0},
	{Path: "/docs/near.html", Size: 1 << 10, Owner: 1},
	{Path: "/docs/fill.bin", Size: 16 << 10, Owner: 1},
	{Path: "/docs/far.bin", Size: 64 << 10, Owner: 1},
	{Path: "/docs/lost.html", Size: 1 << 10, Owner: 2},
	{Path: "/docs/orphan.html", Size: 1 << 10, Owner: 3},
}

// lockedTarget is a file open(2) refuses even to root: /proc/sys entries
// are checked against their mode bits, and this one is write-only.
const lockedTarget = "/proc/sys/vm/drop_caches"

func goldenKinds() []responseKind {
	ims := "If-Modified-Since: " + httpmsg.FormatHTTPDate(goldenModTime) + "\r\n"
	get := func(name string, node int, target, hdr string) responseKind {
		return responseKind{name: name, node: node, raw: "GET " + target + " HTTP/1.0\r\n" + hdr + "\r\n"}
	}
	head := func(name string, node int, target string) responseKind {
		return responseKind{name: name, node: node, raw: "HEAD " + target + " HTTP/1.0\r\n\r\n"}
	}
	internal := "X-Sweb-Internal: 1\r\n"
	return []responseKind{
		get("200 disk read", 0, "/docs/hot.html", ""),
		get("200 cached hit", 0, "/docs/hot.html", ""),
		head("HEAD cached hit", 0, "/docs/hot.html"),
		get("304 local, cached", 0, "/docs/hot.html", ims),
		get("200 sendfile stream", 0, "/docs/big.bin", ""),
		head("HEAD sendfile stream", 0, "/docs/big.bin"),
		get("304 local, streamed", 0, "/docs/big.bin", ims),
		get("302 to the owner", 0, "/docs/near.html?x=1", ""),
		get("200 relay fill, whole with its header", 0, "/docs/near.html?swebr=1", ""),
		{name: "200 cut-through relay, HTTP/1.1", node: 0,
			raw: "GET /docs/fill.bin?swebr=1 HTTP/1.1\r\nConnection: close\r\n\r\n"},
		get("200 cached hit, relayed document", 0, "/docs/near.html?swebr=1", ""),
		get("304 relayed, cached", 0, "/docs/near.html?swebr=1", ims),
		get("200 uncached relay stream", 0, "/docs/far.bin?swebr=1", ""),
		head("HEAD uncached relay stream", 0, "/docs/far.bin?swebr=1"),
		get("304 relayed, streamed", 0, "/docs/far.bin?swebr=1", ims),
		get("404 unknown document", 0, "/docs/nope.html", ""),
		get("404 document missing from the docroot", 0, "/docs/missing.html", ""),
		get("403 document unreadable", 0, "/docs/locked.html", ""),
		get("500 owner unknown", 0, "/docs/orphan.html", ""),
		get("503 owner unreachable", 0, "/docs/lost.html", ""),
		{name: "400 malformed request", node: 0, raw: "GARBAGE\r\n\r\n"},
		get("200 CGI", 0, "/cgi-bin/echo?x=1", ""),
		get("/sweb/status", 0, "/sweb/status", ""),
		get("/sweb/metrics", 0, "/sweb/metrics", ""),
		get("/sweb/trace", 0, "/sweb/trace", ""),
		get("/sweb/flight", 0, "/sweb/flight", ""),
		get("/sweb/heat", 0, "/sweb/heat", ""),
		get("/sweb/slo", 0, "/sweb/slo", ""),
		get("/sweb/snapshot without a directory", 0, "/sweb/snapshot", ""),
		get("/sweb/ unknown endpoint", 0, "/sweb/nope", ""),
		get("/sweb/replicate", 0, "/sweb/replicate?path=/docs/near.html&node=1&action=add", ""),
		get("/sweb/replicate without a node", 0, "/sweb/replicate?path=/docs/near.html&action=add", ""),
		get("/sweb/replicate of an unknown document", 0, "/sweb/replicate?path=/docs/nope.html&node=1&action=add", ""),
		get("internal fetch, from the cache", 1, "/docs/near.html", internal),
		get("internal fetch, by sendfile", 1, "/docs/far.bin", internal),
		get("internal fetch of an unknown document", 1, "/docs/nope.html", internal),
		{name: "200 whose body write fails", node: 0, broken: true,
			raw: "GET /docs/big.bin HTTP/1.0\r\n\r\n"},
	}
}

// TestResponseKindsGolden drives a two-node cluster through every kind of
// response a node writes and pins, per kind, the bytes the client gets
// (Date, the swebt send time, node addresses and the bodies of the
// introspection answers masked), each node's Stats delta with its drop
// causes, and the access-log lines (host and time masked).
func TestResponseKindsGolden(t *testing.T) {
	logs := []*syncBuffer{{}, {}}
	loggers := []*accesslog.Logger{accesslog.NewLogger(logs[0]), accesslog.NewLogger(logs[1])}
	srvs, masks := goldenCluster(t, func(cfg *Config) { cfg.AccessLog = loggers[cfg.ID] })
	var out strings.Builder
	for _, k := range goldenKinds() {
		before := []Stats{srvs[0].Stats(), srvs[1].Stats()}
		got, err := driveKind(srvs, k)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "== %s: node%d %s\n", k.name, k.node, strings.SplitN(k.raw, "\r\n", 2)[0])
		out.WriteString("-- response\n")
		live := strings.Contains(k.raw, " /sweb/") && !strings.Contains(k.raw, "/sweb/replicate")
		out.WriteString(masks.Replace(renderResponse(got, live)))
		out.WriteString("-- stats\n")
		for i, srv := range srvs {
			fmt.Fprintf(&out, "node%d: %s\n", i, statsDelta(before[i], srv.Stats()))
		}
		out.WriteString("-- access log\n")
		for i := range srvs {
			if err := loggers[i].Flush(); err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(strings.TrimSpace(logs[i].take()), "\n") {
				if line != "" {
					fmt.Fprintf(&out, "node%d: %s\n", i, maskCLF(line, live))
				}
			}
		}
	}
	checkGoldenText(t, "responses", out.String())
}

// goldenCluster starts the golden run's two nodes, each Config adjusted by
// edit, once they know each other. It skips the test where no document
// can be made unreadable. The replacer masks the node addresses.
func goldenCluster(t *testing.T, edit func(*Config)) ([]*Server, *strings.Replacer) {
	t.Helper()
	if _, err := os.Lstat(lockedTarget); err != nil {
		t.Skipf("no %s to make a document unreadable: %v", lockedTarget, err)
	}
	st := storage.NewStore(4)
	for _, f := range goldenFiles {
		st.MustAdd(f)
	}
	var srvs []*Server
	for i := 0; i < 2; i++ {
		cfg := Config{ID: i, DocRoot: t.TempDir(), Store: st,
			Policy:     core.FileLocality{P: core.DefaultParams()},
			CacheBytes: 32 << 10, FetchAttempts: 1, FetchBackoff: time.Millisecond}
		edit(&cfg)
		for _, f := range goldenFiles {
			if f.Owner != i || f.Path == "/docs/missing.html" {
				continue
			}
			full := filepath.Join(cfg.DocRoot, filepath.FromSlash(strings.TrimPrefix(f.Path, "/")))
			if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
				t.Fatal(err)
			}
			if f.Path == "/docs/locked.html" {
				if err := os.Symlink(lockedTarget, full); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if err := os.WriteFile(full, docBytes(f.Path, f.Size), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Chtimes(full, goldenModTime, goldenModTime); err != nil {
				t.Fatal(err)
			}
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		srvs = append(srvs, srv)
	}
	srvs[0].RegisterCGI("/cgi-bin/echo", func(q string, _ []byte) ([]byte, string) {
		return []byte("query " + q + "\n"), "text/plain"
	})
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	peers := []Peer{
		{ID: 0, HTTPAddr: srvs[0].Addr(), UDPAddr: srvs[0].UDPAddr()},
		{ID: 1, HTTPAddr: srvs[1].Addr(), UDPAddr: srvs[1].UDPAddr()},
		{ID: 2, HTTPAddr: deadAddr, UDPAddr: "127.0.0.1:1"},
	}
	for _, srv := range srvs {
		srv.SetPeers(peers)
		srv.Start()
	}
	waitFor(t, 5*time.Second, "the nodes know each other", func() bool {
		return knows(srvs[0], 1) && knows(srvs[1], 0)
	})
	return srvs, strings.NewReplacer(srvs[0].Addr(), "node0", srvs[1].Addr(), "node1", deadAddr, "node2")
}

// driveKind sends one golden request and returns the bytes the client got
// (none over a brokenConn). It may run off the test goroutine.
func driveKind(srvs []*Server, k responseKind) ([]byte, error) {
	if k.broken {
		srvs[k.node].inflight.Add(1) // as the accept loop would
		srvs[k.node].serve(newReqConn(srvs[k.node], nil, 0), &brokenConn{r: strings.NewReader(k.raw)})
		return nil, nil
	}
	return sendRaw(srvs[k.node].Addr(), k.raw)
}

// sendRaw sends raw to addr and reads the reply to the server's close.
func sendRaw(addr, raw string) ([]byte, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return nil, err
	}
	if _, err := io.WriteString(conn, raw); err != nil {
		return nil, err
	}
	return io.ReadAll(conn)
}

var (
	dateLine  = regexp.MustCompile(`(?m)^Date: .*$`)
	swebtTime = regexp.MustCompile(`swebt=:[0-9]+`)
	clfHost   = regexp.MustCompile(`^\S+ (- - )\[[^]]*\]`)
	clfOK     = regexp.MustCompile(` 200 [0-9]+$`)
	lengthRe  = regexp.MustCompile(`(?m)^Content-Length: .*$`)
)

// renderResponse prints a response's head line by line and its body as
// text when it is short and printable, else as its length and digest.
// masked replaces the body (and its length) of a 200 that reports live
// state.
func renderResponse(got []byte, masked bool) string {
	if len(got) == 0 {
		return "(nothing)\n"
	}
	head, body, _ := bytes.Cut(got, []byte("\r\n\r\n"))
	h := strings.ReplaceAll(string(head), "\r\n", "\n")
	h = swebtTime.ReplaceAllString(dateLine.ReplaceAllString(h, "Date: <date>"), "swebt=:<micros>")
	var b string
	switch {
	case masked && strings.HasPrefix(h, "HTTP/1.0 200"):
		h = lengthRe.ReplaceAllString(h, "Content-Length: <masked>")
		b = "body: <masked>"
	case len(body) <= 512 && printable(body):
		b = fmt.Sprintf("body: %q", swebtTime.ReplaceAllString(string(body), "swebt=:<micros>"))
	default:
		b = fmt.Sprintf("body: %d bytes, sha256 %x", len(body), sha256.Sum256(body))
	}
	return h + "\n" + b + "\n"
}

func printable(b []byte) bool {
	for _, c := range b {
		if (c < 0x20 && c != '\n' && c != '\r' && c != '\t') || c > 0x7e {
			return false
		}
	}
	return true
}

// maskCLF masks a CLF line's host and time, and the byte count of an
// answer that reports live state.
func maskCLF(line string, live bool) string {
	line = clfHost.ReplaceAllString(line, "H $1[T]")
	if live {
		line = clfOK.ReplaceAllString(line, " 200 <masked>")
	}
	return line
}

// statsDelta lists the Stats fields that moved, gossip counters aside.
func statsDelta(before, after Stats) string {
	var parts []string
	bv, av := reflect.ValueOf(before), reflect.ValueOf(after)
	for i := 0; i < bv.NumField(); i++ {
		f := bv.Type().Field(i)
		name := strings.Split(f.Tag.Get("json"), ",")[0]
		switch name {
		case "broadcasts", "samples_heard", "drops":
			continue
		}
		if d := av.Field(i).Int() - bv.Field(i).Int(); d != 0 {
			parts = append(parts, fmt.Sprintf("%s%+d", name, d))
		}
	}
	var causes []string
	for cause, n := range after.Drops {
		if d := n - before.Drops[cause]; d != 0 {
			causes = append(causes, fmt.Sprintf("drop{%s}%+d", cause, d))
		}
	}
	sort.Strings(causes)
	parts = append(parts, causes...)
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}

// checkGoldenText compares got with testdata/<name>.golden and names the
// first lines that differ.
func checkGoldenText(t *testing.T, name, got string) {
	t.Helper()
	file := filepath.Join("testdata", name+".golden")
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
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	shown := 0
	for i := 0; i < max(len(gl), len(wl)) && shown < 10; i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s.golden line %d:\n got  %q\n want %q", name, i+1, g, w)
			shown++
		}
	}
}
