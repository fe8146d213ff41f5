// Package accesslog implements NCSA Common Log Format — the access-log
// format the original httpd defined and every 1996 server wrote:
//
//	host ident authuser [02/Jan/1996:15:04:05 -0700] "GET /p HTTP/1.0" 200 2326
//
// The live SWEB nodes write one line per request; the parser turns existing
// logs back into entries so real traces can be replayed through the
// simulator (workload.FromAccessLog).
package accesslog

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Entry is one access-log record.
type Entry struct {
	Host     string    // client host or address
	Ident    string    // RFC 1413 identity, almost always "-"
	AuthUser string    // authenticated user, almost always "-"
	Time     time.Time // completion time
	Method   string
	Path     string // request target as sent (path?query)
	Proto    string
	Status   int
	Bytes    int64 // response body size; -1 renders as "-"
}

// clfTime is the CLF timestamp layout.
const clfTime = "02/Jan/2006:15:04:05 -0700"

// String renders the entry as one CLF line (no trailing newline).
func (e Entry) String() string {
	ident, user := e.Ident, e.AuthUser
	if ident == "" {
		ident = "-"
	}
	if user == "" {
		user = "-"
	}
	size := "-"
	if e.Bytes >= 0 {
		size = strconv.FormatInt(e.Bytes, 10)
	}
	return fmt.Sprintf("%s %s %s [%s] \"%s %s %s\" %d %s",
		e.Host, ident, user, e.Time.Format(clfTime), e.Method, e.Path, e.Proto, e.Status, size)
}

// ParseLine parses one CLF line.
func ParseLine(line string) (Entry, error) {
	var e Entry
	line = strings.TrimSpace(line)
	if line == "" {
		return e, fmt.Errorf("accesslog: empty line")
	}
	// host ident authuser
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 4 {
		return e, fmt.Errorf("accesslog: truncated line %q", line)
	}
	// A CLF field is never empty ("-" marks an absent one), so a doubled
	// space is a malformed line, not an empty ident that would render back
	// as "-".
	if fields[1] == "" || fields[2] == "" {
		return e, fmt.Errorf("accesslog: empty field in %q", line)
	}
	e.Host, e.Ident, e.AuthUser = fields[0], fields[1], fields[2]
	rest := fields[3]

	// [timestamp]
	if !strings.HasPrefix(rest, "[") {
		return e, fmt.Errorf("accesslog: missing timestamp in %q", line)
	}
	close := strings.IndexByte(rest, ']')
	if close < 0 {
		return e, fmt.Errorf("accesslog: unterminated timestamp in %q", line)
	}
	ts, err := time.Parse(clfTime, rest[1:close])
	if err != nil {
		return e, fmt.Errorf("accesslog: bad timestamp: %v", err)
	}
	// time.Parse takes fractional seconds the layout lacks; CLF has none.
	if ts.Nanosecond() != 0 {
		return e, fmt.Errorf("accesslog: fractional seconds in %q", rest[1:close])
	}
	e.Time = ts
	rest = strings.TrimSpace(rest[close+1:])

	// "METHOD target PROTO"
	if !strings.HasPrefix(rest, "\"") {
		return e, fmt.Errorf("accesslog: missing request in %q", line)
	}
	endq := strings.IndexByte(rest[1:], '"')
	if endq < 0 {
		return e, fmt.Errorf("accesslog: unterminated request in %q", line)
	}
	reqLine := rest[1 : 1+endq]
	parts := strings.Fields(reqLine)
	if len(parts) != 3 {
		return e, fmt.Errorf("accesslog: malformed request %q", reqLine)
	}
	e.Method, e.Path, e.Proto = parts[0], parts[1], parts[2]
	rest = strings.TrimSpace(rest[endq+2:])

	// status bytes
	tail := strings.Fields(rest)
	if len(tail) < 2 {
		return e, fmt.Errorf("accesslog: missing status/bytes in %q", line)
	}
	status, err := strconv.Atoi(tail[0])
	if err != nil || status < 100 || status > 599 {
		return e, fmt.Errorf("accesslog: bad status %q", tail[0])
	}
	e.Status = status
	if tail[1] == "-" {
		e.Bytes = -1
	} else {
		n, err := strconv.ParseInt(tail[1], 10, 64)
		if err != nil || n < 0 {
			return e, fmt.Errorf("accesslog: bad size %q", tail[1])
		}
		e.Bytes = n
	}
	return e, nil
}

// Parse reads a whole log, skipping blank lines. A malformed line aborts
// with its line number.
func Parse(r io.Reader) ([]Entry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 64<<10)
	var out []Entry
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		e, err := ParseLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Logger serializes entries to a writer, one per line. Safe for concurrent
// use (many handler goroutines share one log).
type Logger struct {
	mu sync.Mutex
	w  *bufio.Writer
}

// NewLogger wraps w. Call Flush before reading what was written.
func NewLogger(w io.Writer) *Logger {
	return &Logger{w: bufio.NewWriter(w)}
}

// Log writes one entry.
func (l *Logger) Log(e Entry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.w.WriteString(e.String()); err != nil {
		return err
	}
	return l.w.WriteByte('\n')
}

// Flush drains buffered lines to the underlying writer.
func (l *Logger) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Flush()
}
