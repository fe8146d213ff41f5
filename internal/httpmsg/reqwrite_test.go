package httpmsg

import (
	"bytes"
	"io"
	"testing"
)

// internalGET builds a request the way a node's internal fetch does.
func internalGET(method, path, ims, trace string) *Request {
	req := &Request{Method: method, Path: path, Proto: "HTTP/1.1", Header: Header{}}
	req.Header.Set("X-Sweb-Internal", "1")
	req.Header.Set("Connection", "keep-alive")
	if ims != "" {
		req.Header.Set("If-Modified-Since", ims)
	}
	if trace != "" {
		req.Header.Set("X-Sweb-Trace", trace)
	}
	return req
}

// TestRequestWriteGolden pins the bytes Request.Write puts on the wire, as
// recorded before its head was built by appending into one buffer: the
// request line, sorted header fields, a Content-Length stamped for a body,
// and the body.
func TestRequestWriteGolden(t *testing.T) {
	const ims = "Sat, 29 Oct 1994 19:43:31 GMT"
	multi := &Request{Method: "GET", Path: "/m", Header: Header{}}
	multi.Header.Add("Accept", "text/html")
	multi.Header.Add("Accept", "text/plain")
	multi.Header.Set("Host", "node0")
	post := &Request{Method: "POST", Path: "/cgi-bin/q", Query: "a=1", Proto: "HTTP/1.0", Header: Header{}, Body: []byte("name=sweb&n=2")}
	post.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	post.Header.Set("Content-Length", "999") // replaced by the body's length
	cases := []struct {
		name string
		req  *Request
		want string
	}{
		{"internal GET", internalGET("GET", "/docs/a.html", "", ""),
			"GET /docs/a.html HTTP/1.1\r\nConnection: keep-alive\r\nX-Sweb-Internal: 1\r\n\r\n"},
		{"internal HEAD", internalGET("HEAD", "/docs/a.html", "", ""),
			"HEAD /docs/a.html HTTP/1.1\r\nConnection: keep-alive\r\nX-Sweb-Internal: 1\r\n\r\n"},
		{"conditional GET", internalGET("GET", "/docs/b.html", ims, ""),
			"GET /docs/b.html HTTP/1.1\r\nConnection: keep-alive\r\nIf-Modified-Since: Sat, 29 Oct 1994 19:43:31 GMT\r\nX-Sweb-Internal: 1\r\n\r\n"},
		{"traced GET", internalGET("GET", "/docs/c.html", "", "7f3a-2"),
			"GET /docs/c.html HTTP/1.1\r\nConnection: keep-alive\r\nX-Sweb-Internal: 1\r\nX-Sweb-Trace: 7f3a-2\r\n\r\n"},
		{"traced conditional HEAD", internalGET("HEAD", "/a b/ü.html", ims, "9-1"),
			"HEAD /a%20b/%C3%BC.html HTTP/1.1\r\nConnection: keep-alive\r\nIf-Modified-Since: Sat, 29 Oct 1994 19:43:31 GMT\r\nX-Sweb-Internal: 1\r\nX-Sweb-Trace: 9-1\r\n\r\n"},
		{"query, default proto, nil header", &Request{Method: "GET", Path: "/q", Query: "x=1&swebr=2"},
			"GET /q?x=1&swebr=2 HTTP/1.0\r\n\r\n"},
		{"repeated field", multi,
			"GET /m HTTP/1.0\r\nAccept: text/html\r\nAccept: text/plain\r\nHost: node0\r\n\r\n"},
		{"POST with body", post,
			"POST /cgi-bin/q?a=1 HTTP/1.0\r\nContent-Length: 13\r\nContent-Type: application/x-www-form-urlencoded\r\n\r\nname=sweb&n=2"},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		w := &countingWriter{w: &buf}
		if err := tc.req.Write(w); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := buf.String(); got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
		if w.writes != 1 {
			t.Errorf("%s: %d writes, want the whole message in one", tc.name, w.writes)
		}
	}
	if got := post.Header.Get("Content-Length"); got != "999" {
		t.Errorf("Write changed the caller's Content-Length to %q", got)
	}
}

// countingWriter counts the writes a message takes.
type countingWriter struct {
	w      io.Writer
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.w.Write(p)
}

// TestRequestWriteAllocations: an internal fetch's request costs the one
// buffer its bytes are built in, not a buffered writer and a formatter.
func TestRequestWriteAllocations(t *testing.T) {
	req := internalGET("GET", "/docs/a.html", "", "7f3a-2")
	if allocs := testing.AllocsPerRun(100, func() { _ = req.Write(io.Discard) }); allocs > 1 {
		t.Errorf("%.1f allocations per Request.Write, want 1", allocs)
	}
}
