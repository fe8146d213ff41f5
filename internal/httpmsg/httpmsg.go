// Package httpmsg implements the HTTP message layer the live SWEB nodes
// speak: request parsing, response serialization, and the handful of status
// codes an NCSA-era server uses (200, 302 for SWEB's URL redirection, 400,
// 403, 404, 500, 503). It is deliberately a from-scratch implementation in
// the spirit of the 1996 httpd, built directly on bufio over net.Conn, but
// extended with the two HTTP/1.1 features the redirection architecture
// leans on: persistent connections (so a 302 hop does not cost a second
// TCP handshake) and chunked transfer coding for bodies whose length is
// unknown when the status line goes out.
package httpmsg

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Limits protect the parser from hostile or broken peers.
const (
	// MaxRequestLine bounds the "GET /path HTTP/1.0" line.
	MaxRequestLine = 8 << 10
	// MaxHeaderBytes bounds the total header block.
	MaxHeaderBytes = 32 << 10
	// MaxHeaderCount bounds the number of header fields.
	MaxHeaderCount = 100
	// MaxBodyBytes bounds request bodies (POST to CGI).
	MaxBodyBytes = 1 << 20
)

// Common status codes. (The paper's text quotes "202 ... OK. File found." —
// a typo for 200, which is what NCSA httpd actually sent.)
const (
	StatusOK                  = 200
	StatusMovedTemporarily    = 302 // SWEB's redirection vehicle
	StatusBadRequest          = 400
	StatusForbidden           = 403
	StatusNotFound            = 404
	StatusInternalServerError = 500
	StatusServiceUnavailable  = 503
)

// StatusText returns the reason phrase for the codes this server emits.
func StatusText(code int) string {
	switch code {
	case StatusOK:
		return "OK"
	case StatusMovedTemporarily:
		return "Moved Temporarily"
	case StatusNotModified:
		return "Not Modified"
	case StatusBadRequest:
		return "Bad Request"
	case StatusForbidden:
		return "Forbidden"
	case StatusNotFound:
		return "Not Found"
	case StatusInternalServerError:
		return "Internal Server Error"
	case StatusServiceUnavailable:
		return "Service Unavailable"
	default:
		return "Status " + strconv.Itoa(code)
	}
}

// Header is a case-insensitive header map; keys are stored canonicalized
// ("Content-Length"). Values keep insertion order per key.
type Header map[string][]string

// CanonicalKey converts "content-length" to "Content-Length". A key that
// is already canonical — every name this package and its callers spell out
// — comes back as is, without a copy.
func CanonicalKey(k string) string {
	upper := true
	for i := 0; i < len(k); i++ {
		c := k[i]
		if (upper && 'a' <= c && c <= 'z') || (!upper && 'A' <= c && c <= 'Z') {
			return string(canonicalize([]byte(k)))
		}
		upper = c == '-'
	}
	return k
}

// canonicalize rewrites b in place into canonical header-name case.
func canonicalize(b []byte) []byte {
	upper := true
	for i, c := range b {
		switch {
		case upper && 'a' <= c && c <= 'z':
			b[i] = c - ('a' - 'A')
		case !upper && 'A' <= c && c <= 'Z':
			b[i] = c + ('a' - 'A')
		}
		upper = c == '-'
	}
	return b
}

// Set replaces the values for key.
func (h Header) Set(key, value string) { h[CanonicalKey(key)] = []string{value} }

// Add appends a value for key.
func (h Header) Add(key, value string) {
	ck := CanonicalKey(key)
	h[ck] = append(h[ck], value)
}

// Get returns the first value for key, or "".
func (h Header) Get(key string) string {
	if vs := h[CanonicalKey(key)]; len(vs) > 0 {
		return vs[0]
	}
	return ""
}

// Del removes key.
func (h Header) Del(key string) { delete(h, CanonicalKey(key)) }

// Clone returns a deep copy of h (nil stays nil).
func (h Header) Clone() Header {
	if h == nil {
		return nil
	}
	out := make(Header, len(h))
	for k, vs := range h {
		out[k] = append([]string(nil), vs...)
	}
	return out
}

// hasToken reports whether the comma-separated header value v contains
// token, compared case-insensitively (the grammar of Connection and
// Transfer-Encoding values).
func hasToken(v, token string) bool {
	for len(v) > 0 {
		part := v
		if i := strings.IndexByte(v, ','); i >= 0 {
			part, v = v[:i], v[i+1:]
		} else {
			v = ""
		}
		if strings.EqualFold(strings.TrimSpace(part), token) {
			return true
		}
	}
	return false
}

// write serializes headers in sorted key order (deterministic output).
// The keys are insertion-sorted into a stack array — a response carries a
// handful of fields — so the common case allocates nothing.
func (h Header) write(w *bufio.Writer) error {
	var stack [16]string
	keys := stack[:0]
	for k := range h {
		i := len(keys)
		keys = append(keys, k)
		for ; i > 0 && keys[i-1] > k; i-- {
			keys[i] = keys[i-1]
		}
		keys[i] = k
	}
	for _, k := range keys {
		for _, v := range h[k] {
			if _, err := w.Write(appendField(w.AvailableBuffer(), k, v)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Request is a parsed HTTP/1.0 request.
type Request struct {
	Method string // "GET", "HEAD", "POST"
	// Path is the decoded absolute path, query string stripped.
	Path string
	// Query is the raw query string (without '?'), "" if none.
	Query  string
	Proto  string // "HTTP/1.0" or "HTTP/1.1"
	Header Header
	Body   []byte // POST payload, nil otherwise
}

// ParseError marks a malformed message; servers answer 400.
type ParseError struct{ Reason string }

func (e *ParseError) Error() string { return "httpmsg: " + e.Reason }

func parseErrf(format string, args ...any) error {
	return &ParseError{Reason: fmt.Sprintf(format, args...)}
}

// ReadRequest parses one request from br into a fresh Request.
func ReadRequest(br *bufio.Reader) (*Request, error) {
	req := new(Request)
	if err := ReadRequestInto(br, req); err != nil {
		return nil, err
	}
	return req, nil
}

// ReadRequestInto parses one request from br into req, overwriting every
// field: req.Header is cleared and refilled (allocated when nil), so a
// serve loop can hand the same Request to each request on a connection
// and no header of one is visible to the next. The line reader's view of
// br's buffer never outlives this call — everything stored in req is a
// constant or a fresh copy.
func ReadRequestInto(br *bufio.Reader, req *Request) error {
	hdr := req.Header
	if hdr == nil {
		hdr = Header{}
	} else {
		clear(hdr)
	}
	*req = Request{Header: hdr}

	line, err := readLine(br, MaxRequestLine)
	if err != nil {
		return err
	}
	methodB, target, protoB, ok := requestFields(line)
	if !ok {
		return parseErrf("malformed request line %q", line)
	}
	if req.Method, ok = oneOf(methodB, "GET", "HEAD", "POST"); !ok {
		return parseErrf("unsupported method %q", methodB)
	}
	if req.Proto, ok = oneOf(protoB, "HTTP/1.1", "HTTP/1.0", "HTTP/0.9"); !ok {
		return parseErrf("unsupported protocol %q", protoB)
	}
	// Accept absolute URLs (proxy-style) by stripping the scheme+host.
	if rest, ok := bytes.CutPrefix(target, []byte("http://")); ok {
		if slash := bytes.IndexByte(rest, '/'); slash >= 0 {
			target = rest[slash:]
		} else {
			target = []byte("/")
		}
	}
	if len(target) == 0 || target[0] != '/' {
		return parseErrf("request target %q is not absolute", target)
	}
	if q := bytes.IndexByte(target, '?'); q >= 0 {
		req.Query = string(target[q+1:])
		target = target[:q]
	}
	req.Path, err = decodePath(string(target))
	if err != nil {
		return err
	}
	if err := readHeaders(br, req.Header); err != nil {
		return err
	}
	if req.Method == "POST" {
		n, err := strconv.Atoi(strings.TrimSpace(req.Header.Get("Content-Length")))
		if err != nil || n < 0 {
			return parseErrf("POST without a valid Content-Length")
		}
		if n > MaxBodyBytes {
			return parseErrf("request body of %d bytes exceeds limit", n)
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			return parseErrf("short request body: %v", err)
		}
		req.Body = body
	}
	return nil
}

// requestFields splits a request line into its three whitespace-separated
// fields, as strings.Fields would; ok is false for any other field count.
func requestFields(line []byte) (method, target, proto []byte, ok bool) {
	for _, c := range line {
		if c >= 0x80 {
			// Non-ASCII bytes may encode Unicode spaces; take the general
			// splitter rather than re-derive its table.
			f := bytes.Fields(line)
			if len(f) != 3 {
				return nil, nil, nil, false
			}
			return f[0], f[1], f[2], true
		}
	}
	var f [3][]byte
	n := 0
	for i := 0; i < len(line); {
		if asciiSpace(line[i]) {
			i++
			continue
		}
		j := i
		for j < len(line) && !asciiSpace(line[j]) {
			j++
		}
		if n == len(f) {
			return nil, nil, nil, false
		}
		f[n] = line[i:j]
		n++
		i = j
	}
	return f[0], f[1], f[2], n == len(f)
}

func asciiSpace(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return false
}

// Write serializes the request (client side).
func (r *Request) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	target := escapePath(r.Path)
	if r.Query != "" {
		target += "?" + r.Query
	}
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.0"
	}
	if _, err := fmt.Fprintf(bw, "%s %s %s\r\n", r.Method, target, proto); err != nil {
		return err
	}
	h := r.Header
	if h == nil {
		h = Header{}
	}
	if r.Body != nil {
		// Clone before stamping Content-Length: callers share one Header
		// map across retries and across requests, and must not see it grow.
		h = h.Clone()
		h.Set("Content-Length", strconv.Itoa(len(r.Body)))
	}
	if err := h.write(bw); err != nil {
		return err
	}
	if _, err := bw.WriteString("\r\n"); err != nil {
		return err
	}
	if r.Body != nil {
		if _, err := bw.Write(r.Body); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// KeepAlive reports whether the client asked for the connection to stay
// open after this request: the default on HTTP/1.1 unless "Connection:
// close", and on HTTP/1.0 only with an explicit "Connection: keep-alive"
// token.
func (r *Request) KeepAlive() bool {
	conn := r.Header.Get("Connection")
	switch r.Proto {
	case "HTTP/1.1":
		return !hasToken(conn, "close")
	case "HTTP/1.0":
		return hasToken(conn, "keep-alive")
	}
	return false
}

// Response is a parsed or to-be-written HTTP response.
type Response struct {
	Proto      string
	StatusCode int
	Status     string // reason phrase
	Header     Header
	// Body is the full body for parsed responses. When writing, use
	// WriteResponseHeader followed by direct writes for streaming.
	Body []byte
}

// ReadResponseHeader parses the status line and headers only, leaving the
// body unread on br — what a HEAD client or a streaming relay needs.
func ReadResponseHeader(br *bufio.Reader) (*Response, error) {
	lineB, err := readLine(br, MaxRequestLine)
	if err != nil {
		return nil, err
	}
	line := string(lineB)
	parts := strings.SplitN(line, " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return nil, parseErrf("malformed status line %q", line)
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil || code < 100 || code > 599 {
		return nil, parseErrf("bad status code in %q", line)
	}
	resp := &Response{Proto: parts[0], StatusCode: code, Header: Header{}}
	if len(parts) == 3 {
		resp.Status = parts[2]
	}
	if err := readHeaders(br, resp.Header); err != nil {
		return nil, err
	}
	return resp, nil
}

// KeepAlive reports whether the server left the connection open after this
// response: "Connection: close" always spends it, HTTP/1.1 defaults to
// open, HTTP/1.0 needs the explicit keep-alive token. Callers must also
// check SelfDelimited — an EOF-bounded body spends the connection anyway.
func (r *Response) KeepAlive() bool {
	conn := r.Header.Get("Connection")
	if hasToken(conn, "close") {
		return false
	}
	if r.Proto == "HTTP/1.1" {
		return true
	}
	return hasToken(conn, "keep-alive")
}

// Chunked reports whether the response body uses chunked transfer coding.
func (r *Response) Chunked() bool {
	return hasToken(r.Header.Get("Transfer-Encoding"), "chunked")
}

// SelfDelimited reports whether the response advertises its own body
// length (Content-Length or chunked), i.e. whether a reader can find the
// boundary of the next response on the same connection.
func (r *Response) SelfDelimited() bool {
	return r.Header.Get("Content-Length") != "" || r.Chunked()
}

// ReadResponse parses a full response, including the body (bounded by
// limit bytes; pass <=0 for no limit beyond Content-Length).
func ReadResponse(br *bufio.Reader, limit int64) (*Response, error) {
	resp, err := ReadResponseHeader(br)
	if err != nil {
		return nil, err
	}
	if resp.Chunked() {
		var r io.Reader = NewChunkedReader(br)
		if limit > 0 {
			r = io.LimitReader(r, limit+1)
		}
		body, err := io.ReadAll(r)
		if err != nil {
			return nil, parseErrf("chunked body: %v", err)
		}
		if limit > 0 && int64(len(body)) > limit {
			return nil, parseErrf("chunked response exceeds limit")
		}
		resp.Body = body
		return resp, nil
	}
	if cl := resp.Header.Get("Content-Length"); cl != "" {
		n, err := strconv.ParseInt(strings.TrimSpace(cl), 10, 64)
		if err != nil || n < 0 {
			return nil, parseErrf("bad Content-Length %q", cl)
		}
		if limit > 0 && n > limit {
			return nil, parseErrf("response body of %d bytes exceeds limit", n)
		}
		resp.Body = make([]byte, n)
		if _, err := io.ReadFull(br, resp.Body); err != nil {
			return nil, parseErrf("short response body: %v", err)
		}
		return resp, nil
	}
	// HTTP/1.0 without Content-Length: body runs to EOF.
	var r io.Reader = br
	if limit > 0 {
		r = io.LimitReader(br, limit+1)
	}
	body, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if limit > 0 && int64(len(body)) > limit {
		return nil, parseErrf("unbounded response exceeds limit")
	}
	resp.Body = body
	return resp, nil
}

// validProto clamps a protocol version to the two response lines this
// server emits; anything unrecognized downgrades to HTTP/1.0.
func validProto(proto string) string {
	if proto == "HTTP/1.1" {
		return proto
	}
	return "HTTP/1.0"
}

// WriteProtoResponseHeader writes the status line (under the given
// protocol version) and headers; the caller then streams the body.
func WriteProtoResponseHeader(w *bufio.Writer, proto string, code int, h Header) error {
	if h == nil {
		h = Header{}
	}
	if h.Get("Date") == "" {
		h.Set("Date", dateHeader(time.Now()))
	}
	if h.Get("Server") == "" {
		h.Set("Server", serverHeader)
	}
	if _, err := w.Write(appendStatusLine(w.AvailableBuffer(), proto, code)); err != nil {
		return err
	}
	if err := h.write(w); err != nil {
		return err
	}
	_, err := w.WriteString("\r\n")
	return err
}

// WriteResponseHeader is WriteProtoResponseHeader pinned to HTTP/1.0, kept
// for the callers that never negotiate keep-alive (monitor, DNS admin).
func WriteResponseHeader(w *bufio.Writer, code int, h Header) error {
	return WriteProtoResponseHeader(w, "HTTP/1.0", code, h)
}

// WriteProtoSimpleResponse writes a complete small response (errors,
// redirects) under the given protocol version.
func WriteProtoSimpleResponse(w io.Writer, proto string, code int, h Header, body []byte) error {
	bw := bufio.NewWriter(w)
	if h == nil {
		h = Header{}
	}
	if h.Get("Content-Type") == "" {
		h.Set("Content-Type", "text/html")
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	if err := WriteProtoResponseHeader(bw, proto, code, h); err != nil {
		return err
	}
	if _, err := bw.Write(body); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteSimpleResponse is WriteProtoSimpleResponse pinned to HTTP/1.0.
func WriteSimpleResponse(w io.Writer, code int, h Header, body []byte) error {
	return WriteProtoSimpleResponse(w, "HTTP/1.0", code, h, body)
}

// ErrorBody renders the little HTML page NCSA httpd sends with an error.
func ErrorBody(code int, detail string) []byte {
	return []byte(fmt.Sprintf(
		"<HEAD><TITLE>%d %s</TITLE></HEAD>\n<BODY><H1>%d %s</H1>\n%s\n</BODY>\n",
		code, StatusText(code), code, StatusText(code), detail))
}

// readLine reads a CRLF- or LF-terminated line of at most max bytes and
// returns it without the terminator. The slice is a view of br's buffer,
// valid only until the next read — callers copy out what they keep. A
// clean close before any byte arrives surfaces as bare io.EOF (how a
// keep-alive loop sees the peer hang up between requests); a close after a
// partial line is a ParseError — the fragment is a truncated message, not
// a complete line.
func readLine(br *bufio.Reader, max int) ([]byte, error) {
	chunk, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// A line longer than br's buffer: gather it piecewise, giving up as
		// soon as it is over the limit.
		long := append([]byte(nil), chunk...)
		for err == bufio.ErrBufferFull && len(long) <= max {
			chunk, err = br.ReadSlice('\n')
			long = append(long, chunk...)
		}
		chunk = long
	}
	if len(chunk) > max {
		return nil, parseErrf("line exceeds %d bytes", max)
	}
	if err != nil {
		if err == io.EOF && len(chunk) == 0 {
			return nil, io.EOF
		}
		if err == io.EOF {
			return nil, parseErrf("connection closed mid-line after %d bytes", len(chunk))
		}
		return nil, err
	}
	return bytes.TrimRight(chunk, "\r\n"), nil
}

func readHeaders(br *bufio.Reader, h Header) error {
	total, count := 0, 0
	for {
		line, err := readLine(br, MaxRequestLine)
		if err != nil {
			return parseErrf("reading headers: %v", err)
		}
		if len(line) == 0 {
			return nil
		}
		total += len(line)
		count++
		if total > MaxHeaderBytes {
			return parseErrf("header block exceeds %d bytes", MaxHeaderBytes)
		}
		if count > MaxHeaderCount {
			return parseErrf("more than %d header fields", MaxHeaderCount)
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 {
			return parseErrf("malformed header line %q", line)
		}
		key := bytes.TrimSpace(line[:colon])
		if len(key) == 0 || bytes.ContainsAny(key, " \t") {
			return parseErrf("malformed header name %q", key)
		}
		ck := headerName(key)
		h[ck] = append(h[ck], string(bytes.TrimSpace(line[colon+1:])))
	}
}

// headerName returns the canonical form of a header name read off the
// wire. The names a client's request or a peer's response always carries
// resolve to constants; any other name is copied (and canonicalized) out
// of the reader's buffer.
func headerName(key []byte) string {
	if name, ok := oneOf(key, "Host", "Connection", "Content-Length", "Content-Type", "Date",
		"If-Modified-Since", "Last-Modified", "Server"); ok {
		return name
	}
	return string(canonicalize(append([]byte(nil), key...)))
}

// oneOf returns the known string equal to b, if any — the constant, so
// the caller keeps nothing of b's backing array.
func oneOf(b []byte, known ...string) (string, bool) {
	for _, k := range known {
		if string(b) == k {
			return k, true
		}
	}
	return "", false
}
