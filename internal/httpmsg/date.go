package httpmsg

import (
	"sync/atomic"
	"time"
)

// HTTP/1.0 date handling (RFC 1945 §3.3): servers emit RFC 1123 dates and
// must accept all three formats browsers of the era sent.
var httpDateLayouts = []string{
	time.RFC1123,                     // Sun, 06 Nov 1994 08:49:37 GMT
	"Monday, 02-Jan-06 15:04:05 MST", // RFC 850
	"Mon Jan  2 15:04:05 2006",       // ANSI C asctime()
}

// httpDateLayout is RFC 1123 with the zone pinned to the literal "GMT" that
// RFC 1945 §3.3 requires; time.RFC1123 would render a UTC time's zone as
// "UTC".
const httpDateLayout = "Mon, 02 Jan 2006 15:04:05 GMT"

// appendHTTPDate is the one place an HTTP date is rendered: FormatHTTPDate
// and the response-head encoder both go through it.
func appendHTTPDate(dst []byte, t time.Time) []byte {
	return t.UTC().AppendFormat(dst, httpDateLayout)
}

// FormatHTTPDate renders t in the preferred RFC 1123 GMT form.
func FormatHTTPDate(t time.Time) string {
	return string(appendHTTPDate(make([]byte, 0, len(httpDateLayout)), t))
}

// dateCache memoizes the rendered Date header for the current second, so
// a busy server formats the clock once a second, not once a response.
var dateCache atomic.Pointer[cachedDate]

type cachedDate struct {
	unix int64
	text string
}

// dateHeader renders now as a Date header value, from the cache when now
// falls in the second last rendered.
func dateHeader(now time.Time) string {
	sec := now.Unix()
	if c := dateCache.Load(); c != nil && c.unix == sec {
		return c.text
	}
	c := &cachedDate{unix: sec, text: FormatHTTPDate(now)}
	dateCache.Store(c)
	return c.text
}

// ParseHTTPDate accepts any of the three HTTP/1.0 date formats.
func ParseHTTPDate(s string) (time.Time, error) {
	var lastErr error
	for _, layout := range httpDateLayouts {
		t, err := time.Parse(layout, s)
		if err == nil {
			return t, nil
		}
		lastErr = err
	}
	return time.Time{}, parseErrf("unparseable HTTP date %q: %v", s, lastErr)
}

// StatusNotModified is the conditional-GET answer (RFC 1945 §9.3).
const StatusNotModified = 304

// NotModified reports whether a document with modification time mod should
// answer 304 to a request carrying the given If-Modified-Since header value
// ("" means unconditional). Sub-second precision is dropped, as HTTP dates
// have none.
func NotModified(ifModifiedSince string, mod time.Time) bool {
	if ifModifiedSince == "" {
		return false
	}
	since, err := ParseHTTPDate(ifModifiedSince)
	if err != nil {
		return false // malformed condition: serve the full document
	}
	return !mod.Truncate(time.Second).After(since)
}
