package httpmsg

import (
	"bufio"
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzReadResponse feeds arbitrary bytes to the parser a relaying node runs
// on every owner reply. Arbitrary bytes must never panic. An accepted
// response must carry a status code from 100 to 599 and an HTTP/ version,
// and re-encoding its framing through ResponseHead.Append must read back
// with the same Content-Length, Last-Modified and keep-alive.
//
//	go test ./internal/httpmsg -run '^$' -fuzz FuzzReadResponse -fuzztime 30s
func FuzzReadResponse(f *testing.F) {
	for _, seed := range []string{
		// The shapes the response tests parse and reject.
		"HTTP/1.0 200 OK\r\n\r\nbody runs to eof",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n6\r\nhello \r\n5\r\nworld\r\n0\r\n\r\n",
		"HTTP/1.0 200 OK\r\nContent-Length: 100\r\n\r\n" + strings.Repeat("x", 100),
		"HTTP/1.1 302 Moved Temporarily\r\nConnection: keep-alive\r\nContent-Length: 5\r\nLocation: http://peer/doc\r\n\r\nmoved",
		"HTTP/1.0 304 Not Modified\r\nConnection: keep-alive\r\nContent-Length: 0\r\nLast-Modified: Sunday, 06-Nov-94 08:49:37 GMT\r\n\r\n",
		"HTTP/1.1 503 Service Unavailable\r\nConnection: close\r\nRetry-After: 2\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.0 200 OK\r\nLast-Modified: Sun Nov  6 08:49:37 1994\r\n\r\n",
		"NOTHTTP 200 OK\r\n\r\n",
		"HTTP/1.0 999999 X\r\n\r\n",
		"HTTP/1.0 20x OK\r\n\r\n",
		"HTTP/1.0 200 OK\r\nContent-Length: -5\r\n\r\n",
		"HTTP/1.0 200 OK\r\nContent-Length: 10\r\n\r\nshort",
		"HTTP/1.0 200 OK\r\nContent-Length: 3\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel",
	} {
		f.Add([]byte(seed))
	}
	head := ResponseHead{Proto: "HTTP/1.1", Code: StatusOK, KeepAlive: true, ContentLength: 4,
		ContentType: "text/html", LastModified: refTime}
	f.Add(append(head.Append(nil, fixedDate), "body"...))

	const limit = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := ReadResponse(bufio.NewReader(bytes.NewReader(data)), limit)
		if err != nil {
			return
		}
		if resp.StatusCode < 100 || resp.StatusCode > 599 || !strings.HasPrefix(resp.Proto, "HTTP/") {
			t.Fatalf("accepted status line %q %d", resp.Proto, resp.StatusCode)
		}
		h := ResponseHead{
			Proto:         resp.Proto,
			Code:          resp.StatusCode,
			KeepAlive:     resp.KeepAlive(),
			ContentLength: int64(len(resp.Body)),
			LastModified:  encodableDate(resp.Header),
		}
		wire := append(h.Append(nil, fixedDate), resp.Body...)
		back, err := ReadResponse(bufio.NewReader(bytes.NewReader(wire)), limit)
		if err != nil {
			t.Fatalf("re-encoded response %q did not parse: %v", wire, err)
		}
		if cl := back.Header.Get("Content-Length"); cl != strconv.Itoa(len(resp.Body)) || !bytes.Equal(back.Body, resp.Body) {
			t.Fatalf("Content-Length %q and %d body bytes back, sent %d", cl, len(back.Body), len(resp.Body))
		}
		if got := encodableDate(back.Header); !got.Equal(h.LastModified) {
			t.Fatalf("Last-Modified %v back, sent %v", got, h.LastModified)
		}
		if back.KeepAlive() != h.KeepAlive {
			t.Fatalf("keep-alive %v back, sent %v", back.KeepAlive(), h.KeepAlive)
		}
	})
}

// encodableDate is the response's Last-Modified as a ResponseHead can carry
// it on: zero when absent or unparseable, and zero when a zone offset moved
// it out of the four-digit years an HTTP date has room for.
func encodableDate(h Header) time.Time {
	t, err := ParseHTTPDate(h.Get("Last-Modified"))
	if y := t.UTC().Year(); err != nil || y < 0 || y > 9999 {
		return time.Time{}
	}
	return t
}

// FuzzReadRequestInto parses two arbitrary messages from one reader into
// one reused Request, the way a keep-alive serve loop does, and parses the
// same bytes again into fresh Requests from ReadRequest. The second message
// must come out of the reused Request exactly as it comes out fresh —
// method, path, query, proto, every header and the body, or the same error
// — so no field of one request is visible in the next.
//
//	go test ./internal/httpmsg -run '^$' -fuzz FuzzReadRequestInto -fuzztime 30s
func FuzzReadRequestInto(f *testing.F) {
	for _, seed := range [][2]string{
		{"GET /a.html?x=1 HTTP/1.1\r\nHost: a\r\nCookie: k=v\r\nAccept: */*\r\nAccept: text/html\r\n\r\n",
			"GET /b.html HTTP/1.1\r\n\r\n"},
		{"POST /cgi-bin/q.cgi HTTP/1.0\r\nContent-Length: 5\r\n\r\nhello",
			"HEAD /b.html HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"},
		{"GET http://peer:8080/docs/a%20b.html?swebr=1&swebt=cafe HTTP/1.1\r\nIf-Modified-Since: Sun, 06 Nov 1994 08:49:37 GMT\r\n\r\n",
			"GET / HTTP/1.1\r\nHost: b\r\n\r\n"},
		{"GET /a HTTP/1.1\r\nX: 1\r\n\r\n", "GET relative HTTP/1.1\r\n\r\n"},
		{"GET /a HTTP/1.1\r\n\r\n", "POST /b HTTP/1.1\r\nContent-Length: 9\r\n\r\nshort"},
		{"BREW /pot HTTP/1.1\r\n\r\n", "GET /a HTTP/1.1\r\nHost: a\r\n\r\n"},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]))
	}
	f.Fuzz(func(t *testing.T, first, second []byte) {
		stream := append(append([]byte(nil), first...), second...)
		reused := bufio.NewReader(bytes.NewReader(stream))
		fresh := bufio.NewReader(bytes.NewReader(stream))
		var req Request
		err1 := ReadRequestInto(reused, &req, nil)
		if _, err := ReadRequest(fresh); fmt.Sprint(err) != fmt.Sprint(err1) {
			t.Fatalf("first message: %v reused, %v fresh", err1, err)
		}
		err2 := ReadRequestInto(reused, &req, nil)
		want, err := ReadRequest(fresh)
		if fmt.Sprint(err) != fmt.Sprint(err2) {
			t.Fatalf("second message: %v reused, %v fresh", err2, err)
		}
		if err != nil {
			return
		}
		if req.Method != want.Method || req.Path != want.Path || req.Query != want.Query || req.Proto != want.Proto {
			t.Fatalf("request line %q %q %q %q reused, %q %q %q %q fresh",
				req.Method, req.Path, req.Query, req.Proto, want.Method, want.Path, want.Query, want.Proto)
		}
		if !reflect.DeepEqual(req.Header, want.Header) {
			t.Fatalf("headers %v reused, %v fresh", req.Header, want.Header)
		}
		if !bytes.Equal(req.Body, want.Body) || (req.Body == nil) != (want.Body == nil) {
			t.Fatalf("body %q reused, %q fresh", req.Body, want.Body)
		}
	})
}
