package httpd

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sweb/internal/httpmsg"
	"sweb/internal/storage"
	"sweb/internal/trace"
)

// randQuery builds a random client query string: 0..5 ordinary parameters,
// sometimes with stale swebr/swebt entries mixed in (as a second hop sees).
func randQuery(rng *rand.Rand) (query string, ordinary []string) {
	var parts []string
	for i, n := 0, rng.Intn(6); i < n; i++ {
		kv := fmt.Sprintf("k%d=v%d", rng.Intn(10), rng.Intn(100))
		parts = append(parts, kv)
		ordinary = append(ordinary, kv)
	}
	if rng.Intn(2) == 0 {
		parts = append(parts, fmt.Sprintf("swebr=%d", rng.Intn(4)))
	}
	if rng.Intn(2) == 0 {
		parts = append(parts, fmt.Sprintf("swebt=stale%d:%d", rng.Intn(100), rng.Int63n(1e12)))
	}
	rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	// The shuffle must not reorder the ordinary params relative to each
	// other as far as the property cares, so recollect them in output order.
	ordinary = ordinary[:0]
	for _, kv := range parts {
		if !strings.HasPrefix(kv, "swebr=") && !strings.HasPrefix(kv, "swebt=") {
			ordinary = append(ordinary, kv)
		}
	}
	return strings.Join(parts, "&"), ordinary
}

// TestRedirectLocationProperty: for random queries, hop counts, and trace
// contexts, redirectLocation must preserve every ordinary parameter in
// order, carry exactly one swebr and one swebt — every redirect stamps its
// send time, traced or not, replacing any stale stamp — and both must
// round-trip through parseRedirectCount / parseTraceContext uncorrupted,
// including across a second hop fed its own output.
func TestRedirectLocationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		query, ordinary := randQuery(rng)
		redirects := rng.Intn(3)
		wantID := trace.TraceID("") // untraced
		if rng.Intn(4) > 0 {
			wantID = trace.TraceID(fmt.Sprintf("t%08x", rng.Uint32()))
		}
		wantMicros := 1 + rng.Int63n(1e15)
		tctx := formatTraceContext(wantID, wantMicros)

		loc := redirectLocation("peer:80", "/doc", query, redirects, tctx)
		rest, ok := strings.CutPrefix(loc, "http://peer:80/doc?")
		if !ok {
			t.Fatalf("case %d: malformed location %q", i, loc)
		}
		checkThreading(t, i, rest, ordinary, redirects+1, wantID, wantMicros)

		// Second hop: the target node rebuilds the URL from the query it
		// received; the counter bumps again, the context is re-stamped.
		micros2 := 1 + rng.Int63n(1e15)
		loc2 := redirectLocation("other:81", "/doc", rest, parseRedirectCount(rest),
			formatTraceContext(wantID, micros2))
		rest2, ok := strings.CutPrefix(loc2, "http://other:81/doc?")
		if !ok {
			t.Fatalf("case %d: malformed second-hop location %q", i, loc2)
		}
		checkThreading(t, i, rest2, ordinary, redirects+2, wantID, micros2)
	}
}

// TestParseTraceContext: a swebt value carries a trace id, a send time, or
// both; one with neither is skipped.
func TestParseTraceContext(t *testing.T) {
	cases := []struct {
		query  string
		id     trace.TraceID
		micros int64
		ok     bool
	}{
		{"swebt=cafe", "cafe", 0, true},      // a client's bare trace id
		{"swebt=cafe:17", "cafe", 17, true},  // a traced 302
		{"x=1&swebt=:17", "", 17, true},      // an untraced 302
		{"swebt=cafe:junk", "cafe", 0, true}, // a bad stamp keeps the id
		{"swebt=:-3&swebt=:0", "", 0, false}, // nothing usable
		{"swebt=&swebt=:x&swebt=b:9", "b", 9, true},
		{"swebr=1", "", 0, false},
	}
	for _, c := range cases {
		id, micros, ok := parseTraceContext(c.query)
		if id != c.id || micros != c.micros || ok != c.ok {
			t.Errorf("parseTraceContext(%q) = (%q, %d, %v), want (%q, %d, %v)",
				c.query, id, micros, ok, c.id, c.micros, c.ok)
		}
	}
}

// TestRedirectLocationEscapesPath: a Location header is one line of the
// response — a path with spaces (or any byte needing escaping) must leave
// percent-encoded, and decoding the escaped form must round-trip to the
// original path. The old code pasted the raw path into the URL; a client
// following "GET /a b.html?swebr=1" then produced an unparseable request
// line at the target node.
func TestRedirectLocationEscapesPath(t *testing.T) {
	cases := []string{
		"/a b.html",
		"/dir with spaces/doc.txt",
		"/percent%file",
		"/q?.html",
		"/plain/doc.html",
	}
	for _, path := range cases {
		loc := redirectLocation("peer:80", path, "", 0, "")
		rest, ok := strings.CutPrefix(loc, "http://peer:80")
		if !ok {
			t.Fatalf("malformed location %q", loc)
		}
		escaped := rest[:strings.IndexByte(rest, '?')]
		for _, bad := range []byte{' ', '?', '"'} {
			if strings.IndexByte(escaped, bad) >= 0 {
				t.Errorf("Location path %q for %q contains unescaped %q", escaped, path, bad)
			}
		}
		decoded, err := httpmsg.DecodePath(escaped)
		if err != nil {
			t.Errorf("escaped path %q does not decode: %v", escaped, err)
			continue
		}
		if decoded != path {
			t.Errorf("escape round trip: %q -> %q -> %q", path, escaped, decoded)
		}
	}
}

// TestEscapedRedirectFollowThrough drives the full hop for a space-laden
// path: the serving node's 302 must be followable verbatim — the target
// parses the escaped path from the request line back to the same document.
func TestEscapedRedirectFollowThrough(t *testing.T) {
	const doc = "/spaced dir/a b.html"
	st := storage.NewStore(1)
	st.MustAdd(storage.File{Path: doc, Size: 512, Owner: 0})
	cfg := Config{ID: 0, DocRoot: t.TempDir(), Store: st}
	full := filepath.Join(cfg.DocRoot, "spaced dir", "a b.html")
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(full, make([]byte, 512), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.SetPeers([]Peer{{ID: 0, HTTPAddr: srv.Addr(), UDPAddr: srv.UDPAddr()}})
	srv.Start()

	// The exact URL a 302 would carry for this document: escaped path plus
	// the bumped redirect counter. A client replays it verbatim as the
	// request target, and the node must parse it back to the document.
	loc := redirectLocation(srv.Addr(), doc, "", 0, "")
	rest := strings.TrimPrefix(loc, "http://"+srv.Addr())
	conn := dialNode(t, srv.Addr())
	fmt.Fprintf(conn, "GET %s HTTP/1.0\r\n\r\n", rest)
	resp, err := httpmsg.ReadResponse(bufio.NewReader(conn), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != httpmsg.StatusOK || len(resp.Body) != 512 {
		t.Fatalf("follow-through = %d len=%d (target %q)", resp.StatusCode, len(resp.Body), rest)
	}
}

// checkThreading asserts the threading invariants on one rebuilt query.
func checkThreading(t *testing.T, i int, query string, ordinary []string,
	wantRedirects int, wantID trace.TraceID, wantMicros int64) {
	t.Helper()
	var gotOrdinary []string
	swebr, swebt := 0, 0
	for _, kv := range strings.Split(query, "&") {
		switch {
		case strings.HasPrefix(kv, "swebr="):
			swebr++
		case strings.HasPrefix(kv, "swebt="):
			swebt++
		default:
			gotOrdinary = append(gotOrdinary, kv)
		}
	}
	if fmt.Sprint(gotOrdinary) != fmt.Sprint(ordinary) {
		t.Fatalf("case %d: ordinary params corrupted: got %v want %v (query %q)",
			i, gotOrdinary, ordinary, query)
	}
	if swebr != 1 {
		t.Fatalf("case %d: %d swebr params in %q, want exactly 1", i, swebr, query)
	}
	if got := parseRedirectCount(query); got != wantRedirects {
		t.Fatalf("case %d: redirect count %d, want %d (query %q)", i, got, wantRedirects, query)
	}
	if swebt != 1 {
		t.Fatalf("case %d: %d swebt params in %q, want exactly 1", i, swebt, query)
	}
	id, micros, ok := parseTraceContext(query)
	if !ok || id != wantID || micros != wantMicros {
		t.Fatalf("case %d: trace context round-trip got (%q, %d, %v), want (%q, %d)",
			i, id, micros, ok, wantID, wantMicros)
	}
}

// FuzzQueryMarkers: arbitrary paths and queries never panic a query
// reader, and a 302's Location parses back to redirects+1 and the swebt
// context while keeping the client's other parameters in order.
func FuzzQueryMarkers(f *testing.F) {
	f.Add("/doc", "a=b&swebr=1&swebt=cafe:5", uint8(0), []byte{0xca, 0xfe}, int64(17))
	f.Add("/a b.html", "", uint8(3), []byte(nil), int64(1))
	f.Add("/q?.html", "&&x=1&swebr=&swebt=:x&swebr&=&path=%2Fa", uint8(1), []byte{1}, int64(-4))
	f.Fuzz(func(t *testing.T, path, query string, redirects uint8, id []byte, micros int64) {
		parseRedirectCount(query)
		parseTraceContext(query)
		queryParam(query, "path")

		wantID := trace.TraceID(hex.EncodeToString(id))
		micros = micros&math.MaxInt64 | 1 // a 302 always stamps a send time
		loc := redirectLocation("h:1", path, query, int(redirects), formatTraceContext(wantID, micros))
		rest, ok := strings.CutPrefix(loc, "http://h:1"+httpmsg.EscapePath(path)+"?")
		if !ok {
			t.Fatalf("malformed location %q", loc)
		}
		var ordinary []string
		for _, kv := range strings.Split(query, "&") {
			if kv != "" && !strings.HasPrefix(kv, "swebr=") && !strings.HasPrefix(kv, "swebt=") {
				ordinary = append(ordinary, kv)
			}
		}
		checkThreading(t, 0, rest, ordinary, int(redirects)+1, wantID, micros)
	})
}
