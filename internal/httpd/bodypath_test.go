package httpd

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"sweb/internal/cache"
	"sweb/internal/httpmsg"
	"sweb/internal/leakcheck"
	"sweb/internal/storage"
)

// countingConn is a client socket that swallows the response and counts
// the Write calls it took — each one a write(2) on a real connection.
type countingConn struct {
	net.Conn // nil: only Write and RemoteAddr are reached
	writes   int
	got      bytes.Buffer
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.got.Write(p)
}

func (c *countingConn) RemoteAddr() net.Addr { return nil }

// TestWriteEntryWriteCounts pins the syscall shape of a cached response: a
// small body leaves with its header in a single write, a bulk body in the
// buffer-topping write plus the uncopied remainder — never in 32 KiB
// slices.
func TestWriteEntryWriteCounts(t *testing.T) {
	srv, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	req := &httpmsg.Request{Method: "GET", Path: "/doc.bin", Proto: "HTTP/1.1", Header: httpmsg.Header{}}
	for _, tc := range []struct {
		size, maxWrites int
	}{
		{1 << 10, 1},
		{1536 << 10, 3},
	} {
		body := bytes.Repeat([]byte{'x'}, tc.size)
		conn := &countingConn{}
		rc := newReqConn(srv, conn, 0)
		rc.proto, rc.keepAlive = "HTTP/1.1", true
		if st := srv.writeEntry(rc, req, cache.Entry{Path: req.Path, Body: body}); st != httpmsg.StatusOK {
			t.Fatalf("%d-byte entry: status %d", tc.size, st)
		}
		rc.flush() // the serve loop's, once the response is accounted for
		if conn.writes < 1 || conn.writes > tc.maxWrites {
			t.Errorf("%d-byte entry left in %d writes, want at most %d", tc.size, conn.writes, tc.maxWrites)
		}
		resp, err := httpmsg.ReadResponse(bufio.NewReader(&conn.got), 4<<20)
		if err != nil {
			t.Fatalf("%d-byte entry: %v", tc.size, err)
		}
		if !bytes.Equal(resp.Body, body) {
			t.Errorf("%d-byte entry: body corrupted (%d bytes back)", tc.size, len(resp.Body))
		}
		if rc.bw.Buffered() != 0 {
			t.Errorf("%d-byte entry: %d bytes left in the connection's writer", tc.size, rc.bw.Buffered())
		}
	}
}

// TestReadOpenFileUsesDescriptor replaces a document under its path between
// the open and the fill. The entry must describe the file that was actually
// read — its bytes, its length, its mtime — and therefore fail validation
// against the path's new occupant instead of passing as fresh.
func TestReadOpenFileUsesDescriptor(t *testing.T) {
	srv, doc := startSoloNode(t, nil)
	full := docFile(srv, doc)
	old := bytes.Repeat([]byte{'o'}, 1024)
	if err := os.WriteFile(full, old, 0o644); err != nil {
		t.Fatal(err)
	}
	oldMod := time.Now().Add(-time.Hour).Truncate(time.Second)
	if err := os.Chtimes(full, oldMod, oldMod); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(full)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	repl := filepath.Join(filepath.Dir(full), "incoming.tmp")
	if err := os.WriteFile(repl, bytes.Repeat([]byte{'n'}, 3000), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(repl, full); err != nil {
		t.Fatal(err)
	}

	ent, err := srv.readOpenFile(doc, f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ent.Body, old) {
		t.Fatalf("body is not the opened file's: %d bytes, first %q", len(ent.Body), ent.Body[:1])
	}
	if !ent.ModTime.Equal(oldMod) {
		t.Fatalf("ModTime = %v, want the opened file's %v", ent.ModTime, oldMod)
	}
	rc := newReqConn(srv, nil, 0)
	rc.checked = storage.File{Path: doc}
	if rc.ownedFresh(ent) {
		t.Fatal("entry read from the replaced file validates against its replacement")
	}
}

// fakePeer is a hand-rolled owner answering every request with the given
// head and body; hits counts the requests it parsed.
func fakePeer(t *testing.T, head string, body []byte) (addr string, hits *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	hits = new(atomic.Int64)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				if _, err := httpmsg.ReadRequest(bufio.NewReader(c)); err != nil {
					return
				}
				hits.Add(1)
				_, _ = c.Write([]byte(head))
				_, _ = c.Write(body)
			}(c)
		}
	}()
	return ln.Addr().String(), hits
}

// TestPeerContentLengthMustMatchManifest: a replica advertising a terabyte
// body is refused before any buffer or client header is sized from it,
// counts as a failed source, and the fetch walks on to the replica that
// tells the truth. With only the liar to ask, the client gets the 503. The
// cache fill and the uncached stream open their source the same way.
func TestPeerContentLengthMustMatchManifest(t *testing.T) {
	leakcheck.Check(t)
	const doc = "/docs/remote.bin"
	const size = 100000
	good := bytes.Repeat([]byte{'g'}, size)
	liar, liarHits := fakePeer(t, "HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\n", make([]byte, 4096))
	honest, _ := fakePeer(t, "HTTP/1.1 200 OK\r\nContent-Length: 100000\r\nConnection: close\r\n\r\n", good)

	for _, cacheOff := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache_off=%v", cacheOff), func(t *testing.T) {
			start := func(replicas []int) *Server {
				return relayNode(t, func(c *Config) { c.CacheOff = cacheOff }, []string{liar, honest},
					storage.File{Path: doc, Size: size, Owner: 1, Replicas: replicas})
			}
			before := liarHits.Load()
			alone := start(nil)
			if st, _ := get(t, alone.Addr(), doc); st != httpmsg.StatusServiceUnavailable {
				t.Fatalf("lying sole owner: status %d, want 503", st)
			}
			if liarHits.Load() == before {
				t.Fatal("the lying owner was never asked")
			}
			if !cacheOff && alone.Cache().Peek(doc) {
				t.Fatal("a refused body reached the cache")
			}

			before = liarHits.Load()
			pair := start([]int{1, 2})
			st, body := get(t, pair.Addr(), doc)
			if st != httpmsg.StatusOK || !bytes.Equal(body, good) {
				t.Fatalf("failover past the liar: status %d, %d bytes", st, len(body))
			}
			if liarHits.Load() == before {
				t.Fatal("the lying primary was skipped, not refused: the test proves nothing")
			}
		})
	}
}
