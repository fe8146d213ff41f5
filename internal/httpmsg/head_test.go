package httpmsg

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

const fixedDate = "Sat, 26 Sep 2026 06:00:00 GMT"

// mapHead renders h the way the server did before the fixed-field encoder:
// a Header map through WriteProtoResponseHeader.
func mapHead(t *testing.T, h ResponseHead) string {
	t.Helper()
	m := Header{}
	m.Set("Date", fixedDate)
	conn := "close"
	if h.KeepAlive {
		conn = "keep-alive"
	}
	m.Set("Connection", conn)
	if h.ContentLength >= 0 {
		m.Set("Content-Length", strconv.FormatInt(h.ContentLength, 10))
	}
	if h.ContentType != "" {
		m.Set("Content-Type", h.ContentType)
	}
	if !h.LastModified.IsZero() {
		m.Set("Last-Modified", FormatHTTPDate(h.LastModified))
	}
	if h.Location != "" {
		m.Set("Location", h.Location)
	}
	if h.RetryAfter != "" {
		m.Set("Retry-After", h.RetryAfter)
	}
	if h.Chunked {
		m.Set("Transfer-Encoding", "chunked")
	}
	var out bytes.Buffer
	bw := bufio.NewWriter(&out)
	if err := WriteProtoResponseHeader(bw, h.Proto, h.Code, m); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	return out.String()
}

// TestResponseHeadMatchesMapWriter is the golden test for the wire bytes:
// over every response shape the live server emits, the fixed-field encoder
// produces exactly what the Header-map writer does.
func TestResponseHeadMatchesMapWriter(t *testing.T) {
	shapes := []struct {
		name string
		head ResponseHead
	}{
		{"200 sized", ResponseHead{Code: StatusOK, ContentLength: 1024, ContentType: "text/html"}},
		{"200 chunked", ResponseHead{Code: StatusOK, ContentLength: -1, ContentType: "application/octet-stream", Chunked: true}},
		{"304", ResponseHead{Code: StatusNotModified, ContentLength: 0, ContentType: "text/html"}},
		{"302", ResponseHead{Code: StatusMovedTemporarily, ContentLength: 77, ContentType: "text/html",
			Location: "http://127.0.0.1:8081/docs/a%20b.html?x=1&swebr=1"}},
		{"503", ResponseHead{Code: StatusServiceUnavailable, ContentLength: 90, ContentType: "text/html", RetryAfter: "2"}},
	}
	for _, proto := range []string{"HTTP/1.0", "HTTP/1.1"} {
		for _, keepAlive := range []bool{true, false} {
			for _, mod := range []time.Time{{}, refTime} {
				for _, sh := range shapes {
					h := sh.head
					h.Proto, h.KeepAlive, h.LastModified = proto, keepAlive, mod
					name := fmt.Sprintf("%s %s keepalive=%v lastmod=%v", sh.name, proto, keepAlive, !mod.IsZero())
					got := string(h.Append(nil, fixedDate))
					if want := mapHead(t, h); got != want {
						t.Errorf("%s:\n got %q\nwant %q", name, got, want)
					}
					var out bytes.Buffer
					bw := bufio.NewWriter(&out)
					if err := h.Write(bw); err != nil {
						t.Fatal(err)
					}
					bw.Flush()
					if !strings.HasSuffix(out.String(), "\r\n\r\n") || !strings.Contains(out.String(), "\r\nDate: ") {
						t.Errorf("%s: Write produced %q", name, out.String())
					}
				}
			}
		}
	}
}

// TestResponseHeadLiteral pins one head byte for byte, so the two writers
// cannot drift together.
func TestResponseHeadLiteral(t *testing.T) {
	h := ResponseHead{Proto: "HTTP/1.1", Code: StatusOK, KeepAlive: true, ContentLength: 1024,
		ContentType: "text/html", LastModified: refTime}
	want := "HTTP/1.1 200 OK\r\n" +
		"Connection: keep-alive\r\n" +
		"Content-Length: 1024\r\n" +
		"Content-Type: text/html\r\n" +
		"Date: " + fixedDate + "\r\n" +
		"Last-Modified: Sun, 06 Nov 1994 08:49:37 GMT\r\n" +
		"Server: SWEB/1.0 (NCSA-derived)\r\n" +
		"\r\n"
	if got := string(h.Append(nil, fixedDate)); got != want {
		t.Errorf("encoder:\n got %q\nwant %q", got, want)
	}
	if got := mapHead(t, h); got != want {
		t.Errorf("map writer:\n got %q\nwant %q", got, want)
	}
}

// TestResponseHeadLongLocation: a head larger than the writer's free space
// still goes out whole.
func TestResponseHeadLongLocation(t *testing.T) {
	h := ResponseHead{Proto: "HTTP/1.1", Code: StatusMovedTemporarily, KeepAlive: true,
		ContentType: "text/html", Location: "http://host/" + strings.Repeat("x", 6000)}
	var out bytes.Buffer
	bw := bufio.NewWriterSize(&out, 64)
	if err := h.Write(bw); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	resp, err := ReadResponseHeader(bufio.NewReader(&out))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Location") != h.Location {
		t.Fatal("Location mangled")
	}
}

func TestResponseHeadWriteAllocatesNothing(t *testing.T) {
	bw := bufio.NewWriter(discard{})
	h := ResponseHead{Proto: "HTTP/1.1", Code: StatusOK, KeepAlive: true, ContentLength: 1024,
		ContentType: "text/html", LastModified: refTime}
	_ = h.Write(bw) // prime the Date cache for this second
	if n := testing.AllocsPerRun(1000, func() {
		_ = h.Write(bw)
		_ = bw.Flush()
	}); n != 0 {
		t.Fatalf("%v allocations per encoded head, want 0", n)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestDateHeaderCachedPerSecond(t *testing.T) {
	now := time.Date(2026, 9, 26, 6, 0, 0, 1, time.UTC)
	if got := dateHeader(now); got != fixedDate {
		t.Fatalf("got %q", got)
	}
	if got := dateHeader(now.Add(900 * time.Millisecond)); got != fixedDate {
		t.Fatalf("same second: got %q", got)
	}
	if got := dateHeader(now.Add(time.Second)); got != "Sat, 26 Sep 2026 06:00:01 GMT" {
		t.Fatalf("next second: got %q", got)
	}
}

// TestReadRequestIntoReuse refills one Request from a pipelined stream:
// each parse must see only its own request's fields, and nothing kept from
// a parse may change when the reader's buffer is overwritten by the next.
func TestReadRequestIntoReuse(t *testing.T) {
	wire := "GET /a.html?x=1 HTTP/1.1\r\nHost: one\r\nIf-Modified-Since: " + fixedDate + "\r\nx-sweb-trace: cafe\r\n\r\n" +
		"HEAD /b.html HTTP/1.0\r\nHost: two\r\n\r\n" +
		"POST /cgi HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"
	// A reader barely larger than a line, so every line overwrites the last.
	br := bufio.NewReaderSize(strings.NewReader(wire), 64)
	var req Request
	if err := ReadRequestInto(br, &req); err != nil {
		t.Fatal(err)
	}
	if req.Method != "GET" || req.Path != "/a.html" || req.Query != "x=1" || req.Proto != "HTTP/1.1" ||
		req.Header.Get("Host") != "one" || req.Header.Get("If-Modified-Since") != fixedDate ||
		req.Header.Get("X-Sweb-Trace") != "cafe" || len(req.Header) != 3 {
		t.Fatalf("first: %+v", req)
	}
	path, host, trace := req.Path, req.Header.Get("Host"), req.Header.Get("X-Sweb-Trace")
	hdr := req.Header

	if err := ReadRequestInto(br, &req); err != nil {
		t.Fatal(err)
	}
	if req.Method != "HEAD" || req.Path != "/b.html" || req.Query != "" || req.Proto != "HTTP/1.0" ||
		req.Header.Get("Host") != "two" || len(req.Header) != 1 || req.Body != nil {
		t.Fatalf("second: %+v", req)
	}
	if req.Header.Get("If-Modified-Since") != "" || req.Header.Get("X-Sweb-Trace") != "" {
		t.Fatalf("first request's headers visible to the second: %v", req.Header)
	}
	if path != "/a.html" || host != "one" || trace != "cafe" {
		t.Fatalf("strings kept from the first parse changed: %q %q %q", path, host, trace)
	}
	hdr["Probe"] = nil
	if _, same := req.Header["Probe"]; !same {
		t.Fatal("the header map was replaced, not reused")
	}

	if err := ReadRequestInto(br, &req); err != nil {
		t.Fatal(err)
	}
	if req.Method != "POST" || string(req.Body) != "abc" || len(req.Header) != 1 {
		t.Fatalf("third: %+v", req)
	}
}

// TestReadLineLongerThanBuffer: lines past the reader's buffer size are
// still accepted up to the limit, and refused beyond it.
func TestReadLineLongerThanBuffer(t *testing.T) {
	long := "/" + strings.Repeat("a", 5000)
	br := bufio.NewReaderSize(strings.NewReader("GET "+long+" HTTP/1.0\r\nX-Long: "+long+"\r\n\r\n"), 128)
	req, err := ReadRequest(br)
	if err != nil {
		t.Fatal(err)
	}
	if req.Path != long || req.Header.Get("X-Long") != long {
		t.Fatal("long line truncated")
	}
	over := strings.Repeat("b", MaxRequestLine+1)
	br = bufio.NewReaderSize(strings.NewReader("GET /"+over+" HTTP/1.0\r\n\r\n"), 128)
	if _, err := ReadRequest(br); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("over-long line: %v", err)
	}
}

// TestIsNormalAgreesWithResolve checks the allocation-free fast path of
// path normalization against the segment resolver, exhaustively over short
// strings of the bytes that matter.
func TestIsNormalAgreesWithResolve(t *testing.T) {
	alphabet := []byte{'a', '.', '/', 0}
	var walk func(prefix []byte, depth int)
	walk = func(prefix []byte, depth int) {
		p := string(prefix)
		if isNormal(p) {
			if got, ok := resolveSegments(p); !ok || got != p {
				t.Fatalf("isNormal(%q) but resolveSegments gives %q, %v", p, got, ok)
			}
		}
		if depth == 0 {
			return
		}
		for _, c := range alphabet {
			walk(append(prefix, c), depth-1)
		}
	}
	walk(nil, 7)
	for _, p := range []string{"/", "/a", "/a/", "/docs/a.html", "/a.b/..c/d"} {
		if !isNormal(p) {
			t.Errorf("isNormal(%q) = false; the common case would allocate", p)
		}
	}
}

func TestCanonicalKeyNoCopyWhenCanonical(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _ = CanonicalKey("If-Modified-Since") }); n != 0 {
		t.Fatalf("%v allocations for a canonical key", n)
	}
	for in, want := range map[string]string{"x-sweb-trace": "X-Sweb-Trace", "HOST": "Host", "Content-length": "Content-Length", "": ""} {
		if got := CanonicalKey(in); got != want {
			t.Errorf("CanonicalKey(%q) = %q, want %q", in, got, want)
		}
	}
}
