package httpmsg

import (
	"bufio"
	"bytes"
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
