package httpd

import (
	"bufio"
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sweb/internal/httpmsg"
	"sweb/internal/metrics"
)

// getWith is get with request headers, returning the full response. A
// "?query" suffix on target is sent as the request's query string.
func getWith(t *testing.T, addr, target string, hdr map[string]string) *httpmsg.Response {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	path, query, _ := strings.Cut(target, "?")
	req := &httpmsg.Request{Method: "GET", Path: path, Query: query, Header: httpmsg.Header{}}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	if err := req.Write(conn); err != nil {
		t.Fatal(err)
	}
	resp, err := httpmsg.ReadResponse(bufio.NewReader(conn), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// docFile resolves a document path inside the node's docroot.
func docFile(srv *Server, doc string) string {
	return filepath.Join(srv.cfg.DocRoot, filepath.FromSlash(strings.TrimPrefix(doc, "/")))
}

// TestCacheNeverServesStale mutates a document between requests — same
// size, different bytes, bumped mtime — and demands the cache's validator
// force a re-read: the old body must never leave the node again.
func TestCacheNeverServesStale(t *testing.T) {
	srv, doc := startSoloNode(t, nil)
	full := docFile(srv, doc)

	st, first := get(t, srv.Addr(), doc)
	if st != httpmsg.StatusOK {
		t.Fatalf("first fetch = %d", st)
	}
	// A repeat is a memory hit of the same bytes.
	if st, again := get(t, srv.Addr(), doc); st != httpmsg.StatusOK || !bytes.Equal(again, first) {
		t.Fatalf("cached fetch = %d, equal=%v", st, bytes.Equal(again, first))
	}
	if !srv.Cache().Peek(doc) {
		t.Fatal("document not resident after two fetches")
	}

	// Rewrite in place: identical size so only the mtime betrays the
	// change — the hardest staleness case for a size-checking cache.
	mutated := bytes.Repeat([]byte{'Z'}, len(first))
	if err := os.WriteFile(full, mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(full)
	if err != nil {
		t.Fatal(err)
	}
	// Force a visibly newer mtime even on coarse-granularity filesystems.
	newMod := fi.ModTime().Add(2 * time.Second)
	if err := os.Chtimes(full, newMod, newMod); err != nil {
		t.Fatal(err)
	}

	st, body := get(t, srv.Addr(), doc)
	if st != httpmsg.StatusOK {
		t.Fatalf("post-mutation fetch = %d", st)
	}
	if !bytes.Equal(body, mutated) {
		t.Fatalf("served stale bytes after mutation: got %q... want %q...", body[:8], mutated[:8])
	}
	// And the refreshed entry serves the new bytes from memory thereafter.
	if st, again := get(t, srv.Addr(), doc); st != httpmsg.StatusOK || !bytes.Equal(again, mutated) {
		t.Fatalf("refreshed cached fetch = %d, equal=%v", st, bytes.Equal(again, mutated))
	}
}

// TestCacheConditionalGetRevalidates drives If-Modified-Since through the
// cached path: an up-to-date condition earns a body-less 304 from memory,
// and mutating the document flips the same condition back to a full 200
// with the new bytes.
func TestCacheConditionalGetRevalidates(t *testing.T) {
	srv, doc := startSoloNode(t, nil)
	full := docFile(srv, doc)

	if st, _ := get(t, srv.Addr(), doc); st != httpmsg.StatusOK {
		t.Fatalf("warm-up fetch = %d", st)
	}
	fi, err := os.Stat(full)
	if err != nil {
		t.Fatal(err)
	}
	cond := map[string]string{"If-Modified-Since": httpmsg.FormatHTTPDate(fi.ModTime())}

	resp := getWith(t, srv.Addr(), doc, cond)
	if resp.StatusCode != httpmsg.StatusNotModified {
		t.Fatalf("conditional GET on cached entry = %d, want 304", resp.StatusCode)
	}
	if len(resp.Body) != 0 {
		t.Fatalf("304 carried %d body bytes", len(resp.Body))
	}
	if resp.Header.Get("Last-Modified") == "" {
		t.Fatal("304 from cache lost Last-Modified")
	}

	// Mutate the document; the same stale condition must now fetch fresh.
	mutated := []byte("regenerated document body\n")
	if err := os.WriteFile(full, mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	newMod := fi.ModTime().Add(3 * time.Second)
	if err := os.Chtimes(full, newMod, newMod); err != nil {
		t.Fatal(err)
	}
	resp = getWith(t, srv.Addr(), doc, cond)
	if resp.StatusCode != httpmsg.StatusOK {
		t.Fatalf("conditional GET after mutation = %d, want 200", resp.StatusCode)
	}
	if !bytes.Equal(resp.Body, mutated) {
		t.Fatalf("conditional GET served stale bytes: %q", resp.Body)
	}
}

// TestConditionalGetAcceptsAllDateFormats: a browser may send
// If-Modified-Since in any of the three HTTP/1.0 date formats, and the 304
// comes back with dates in the RFC 1123 GMT form.
func TestConditionalGetAcceptsAllDateFormats(t *testing.T) {
	srv, doc := startSoloNode(t, nil)
	if st, _ := get(t, srv.Addr(), doc); st != httpmsg.StatusOK {
		t.Fatalf("warm-up fetch = %d", st)
	}
	fi, err := os.Stat(docFile(srv, doc))
	if err != nil {
		t.Fatal(err)
	}
	mod := fi.ModTime().UTC()
	for name, layout := range map[string]string{
		"RFC 1123": "Mon, 02 Jan 2006 15:04:05 GMT",
		"RFC 850":  "Monday, 02-Jan-06 15:04:05 GMT",
		"asctime":  "Mon Jan  2 15:04:05 2006",
	} {
		resp := getWith(t, srv.Addr(), doc, map[string]string{"If-Modified-Since": mod.Format(layout)})
		if resp.StatusCode != httpmsg.StatusNotModified {
			t.Errorf("%s If-Modified-Since %q = %d, want 304", name, mod.Format(layout), resp.StatusCode)
		}
		for _, h := range []string{"Date", "Last-Modified"} {
			v := resp.Header.Get(h)
			if _, err := time.Parse("Mon, 02 Jan 2006 15:04:05 GMT", v); err != nil {
				t.Errorf("%s: %s header %q is not an RFC 1123 GMT date", name, h, v)
			}
		}
	}
}

// TestCacheMetricsAndStatus checks the observability wiring: the
// sweb_cache_* families move with traffic and /sweb/status carries the
// cache section.
func TestCacheMetricsAndStatus(t *testing.T) {
	srv, doc := startSoloNode(t, nil)
	for i := 0; i < 3; i++ {
		if st, _ := get(t, srv.Addr(), doc); st != httpmsg.StatusOK {
			t.Fatalf("fetch %d failed", i)
		}
	}
	status, body := get(t, srv.Addr(), "/sweb/metrics")
	if status != httpmsg.StatusOK {
		t.Fatalf("/sweb/metrics = %d", status)
	}
	samples, err := metrics.ParseText(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("exposition did not parse: %v", err)
	}
	want := func(name string, atLeast float64) {
		t.Helper()
		v, ok := metrics.Value(samples, name, nil)
		if !ok || v < atLeast {
			t.Fatalf("%s = %v (found=%v), want >= %v", name, v, ok, atLeast)
		}
	}
	want("sweb_cache_hits_total", 2)   // fetches 2 and 3
	want("sweb_cache_misses_total", 1) // the cold first fetch
	want("sweb_cache_bytes", 1024)
	want("sweb_cache_capacity_bytes", float64(DefaultCacheBytes))

	cs := srv.cacheStatus()
	if !cs.Enabled || cs.Hits < 2 || cs.Misses < 1 || cs.Files < 1 {
		t.Fatalf("cache status = %+v", cs)
	}
	if len(cs.Hot) == 0 || cs.Hot[0] != doc {
		t.Fatalf("hot list = %v, want %s first", cs.Hot, doc)
	}
}

// TestCacheOff runs the ablation: with Config.CacheOff the node serves
// correctly straight off the disk, publishes no cache families, and
// reports the cache disabled.
func TestCacheOff(t *testing.T) {
	srv, doc := startSoloNode(t, func(c *Config) { c.CacheOff = true })
	for i := 0; i < 2; i++ {
		if st, _ := get(t, srv.Addr(), doc); st != httpmsg.StatusOK {
			t.Fatalf("fetch %d failed", i)
		}
	}
	if srv.Cache() != nil {
		t.Fatal("CacheOff left a cache constructed")
	}
	if cs := srv.cacheStatus(); cs.Enabled {
		t.Fatalf("cache status = %+v, want disabled", cs)
	}
	_, body := get(t, srv.Addr(), "/sweb/metrics")
	if strings.Contains(string(body), "sweb_cache_") {
		t.Fatal("disabled cache still publishes sweb_cache_* families")
	}
}
