package httpmsg

import (
	"bufio"
	"strconv"
	"time"
)

// serverHeader identifies the implementation on every response.
const serverHeader = "SWEB/1.0 (NCSA-derived)"

// ResponseHead is the fixed set of fields the live server's own responses
// carry. It exists so the request path can encode a status line and header
// block without building a Header map: every field is a plain value, and
// Write appends them in the sorted-key order Header serialization uses —
// Connection, Content-Length, Content-Type, Date, Last-Modified, Location,
// Retry-After, Server — so the wire bytes match WriteProtoResponseHeader
// given the equivalent map. Every SWEB body has a known length, so every
// head carries Content-Length.
type ResponseHead struct {
	Proto         string // "HTTP/1.1"; anything else answers as HTTP/1.0
	Code          int
	KeepAlive     bool      // Connection: keep-alive, else close
	ContentLength int64     // always sent
	ContentType   string    // "" omits
	LastModified  time.Time // zero omits
	Location      string    // "" omits
	RetryAfter    string    // "" omits
}

// appendStatusLine appends "HTTP/1.x <code> <reason>\r\n".
func appendStatusLine(dst []byte, proto string, code int) []byte {
	dst = append(dst, validProto(proto)...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(code), 10)
	dst = append(dst, ' ')
	dst = append(dst, StatusText(code)...)
	return append(dst, "\r\n"...)
}

// appendField appends "Key: value\r\n".
func appendField(dst []byte, key, value string) []byte {
	dst = append(dst, key...)
	dst = append(dst, ": "...)
	dst = append(dst, value...)
	return append(dst, "\r\n"...)
}

// Append appends the encoded head, blank line included, to dst. date is
// the Date header value.
func (h *ResponseHead) Append(dst []byte, date string) []byte {
	dst = appendStatusLine(dst, h.Proto, h.Code)
	if h.KeepAlive {
		dst = append(dst, "Connection: keep-alive\r\n"...)
	} else {
		dst = append(dst, "Connection: close\r\n"...)
	}
	dst = append(dst, "Content-Length: "...)
	dst = strconv.AppendInt(dst, h.ContentLength, 10)
	dst = append(dst, "\r\n"...)
	if h.ContentType != "" {
		dst = appendField(dst, "Content-Type", h.ContentType)
	}
	dst = appendField(dst, "Date", date)
	if !h.LastModified.IsZero() {
		dst = append(dst, "Last-Modified: "...)
		dst = appendHTTPDate(dst, h.LastModified)
		dst = append(dst, "\r\n"...)
	}
	if h.Location != "" {
		dst = appendField(dst, "Location", h.Location)
	}
	if h.RetryAfter != "" {
		dst = appendField(dst, "Retry-After", h.RetryAfter)
	}
	dst = appendField(dst, "Server", serverHeader)
	return append(dst, "\r\n"...)
}

// Write encodes the head straight into w's free buffer space, its Date
// (cached per second) taken from now, a clock reading the caller already
// holds. A head that fits — every head but one with a very long Location
// — is never copied or allocated for.
func (h *ResponseHead) Write(w *bufio.Writer, now time.Time) error {
	_, err := w.Write(h.Append(w.AvailableBuffer(), dateHeader(now)))
	return err
}
