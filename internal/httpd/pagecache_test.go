package httpd

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sweb/internal/httpmsg"
	"sweb/internal/storage"
)

// TestInternalFetchSendsFromPageCache pins the owner side of a relay, the
// live NFS server. A document larger than the write buffer leaves the
// owner straight from its file, byte-identical and with the owner's
// Last-Modified, and never enters the owner's hot cache; a 1 KiB document
// still fills it. The owner settles its cache before it writes the body
// the relay waits for, so reading that cache after the client's response
// is race-free.
func TestInternalFetchSendsFromPageCache(t *testing.T) {
	checkNoLeaks(t)
	const big, small = "/docs/big.bin", "/docs/small.html"
	relay, owner := startPair(t, nil,
		storage.File{Path: big, Size: 256 << 10, Owner: 1},
		storage.File{Path: small, Size: 1 << 10, Owner: 1})

	for _, doc := range []string{big, small} {
		want, err := os.ReadFile(docFile(owner, doc))
		if err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(docFile(owner, doc))
		if err != nil {
			t.Fatal(err)
		}
		// Three pinned relays, the relay's own copy dropped before each, so
		// every one is an internal fetch from the owner.
		for i := 0; i < 3; i++ {
			relay.Cache().Invalidate(doc)
			resp := getWith(t, relay.Addr(), doc+"?swebr=1", nil)
			if resp.StatusCode != httpmsg.StatusOK || !bytes.Equal(resp.Body, want) {
				t.Fatalf("relay %d of %s: status %d, %d bytes, identical=%v",
					i, doc, resp.StatusCode, len(resp.Body), bytes.Equal(resp.Body, want))
			}
			if lm, wantLM := resp.Header.Get("Last-Modified"), httpmsg.FormatHTTPDate(fi.ModTime()); lm != wantLM {
				t.Fatalf("relay of %s: Last-Modified %q, want the owner's %q", doc, lm, wantLM)
			}
		}
	}
	if owner.Cache().Peek(big) {
		t.Error("the owner cached a document it can send from its page cache")
	}
	if !owner.Cache().Peek(small) {
		t.Error("a 1 KiB internal fetch no longer fills the owner's cache")
	}
	// A sent file leaves the owner's connection framed for the next
	// response: one upstream connection carried all six fetches.
	if st := relay.Stats(); st.UpstreamDials != 1 || st.UpstreamReused != 5 {
		t.Errorf("upstream dials %d, reused %d; want 1 and 5", st.UpstreamDials, st.UpstreamReused)
	}
}

// readerFromConn is a client socket with its own io.ReaderFrom, as
// *net.TCPConn has; it records the reader ReadFrom was handed.
type readerFromConn struct {
	countingConn
	from io.Reader
}

func (c *readerFromConn) ReadFrom(r io.Reader) (int64, error) {
	c.from = r
	return io.Copy(&c.got, r)
}

// docOnDisk writes size bytes of docBytes to a temp file and returns its
// path and contents.
func docOnDisk(t *testing.T, size int) (string, []byte) {
	t.Helper()
	body := docBytes("doc.bin", int64(size))
	path := filepath.Join(t.TempDir(), "doc.bin")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, body
}

func openDoc(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// fileResponse runs streamResponse for a 200 announcing size bytes of f
// over conn, as a keep-alive HTTP/1.1 response, then the serve loop's flush.
func fileResponse(srv *Server, conn net.Conn, f *os.File, size int64) (*reqConn, int) {
	rc := newReqConn(srv, conn, 0)
	rc.proto, rc.keepAlive = "HTTP/1.1", true
	req := &httpmsg.Request{Method: "GET", Path: "/doc.bin", Proto: "HTTP/1.1", Header: httpmsg.Header{}}
	mod := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	status := srv.streamResponse(rc, req, size, f, mod)
	rc.flush()
	return rc, status
}

func unstartedServer(t *testing.T) *Server {
	t.Helper()
	srv, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// TestStreamResponseSendsFile: a file body that does not fit the buffer
// reaches the socket's ReadFrom as an *io.LimitedReader over the *os.File
// itself — the shape *net.TCPConn turns into sendfile(2); nothing may
// re-wrap it — and the meter still counts header plus body and stamps the
// first write.
func TestStreamResponseSendsFile(t *testing.T) {
	checkNoLeaks(t)
	srv := unstartedServer(t)
	path, body := docOnDisk(t, 64<<10)
	conn := &readerFromConn{}
	rc, status := fileResponse(srv, conn, openDoc(t, path), int64(len(body)))
	if status != httpmsg.StatusOK || !rc.keepAlive {
		t.Fatalf("status %d, keep-alive %v", status, rc.keepAlive)
	}
	lr, ok := conn.from.(*io.LimitedReader)
	if !ok {
		t.Fatalf("ReadFrom got %T, want *io.LimitedReader", conn.from)
	}
	if _, isFile := lr.R.(*os.File); !isFile {
		t.Fatalf("ReadFrom's limited reader wraps %T, want *os.File", lr.R)
	}
	resp, err := httpmsg.ReadResponse(bufio.NewReader(bytes.NewReader(conn.got.Bytes())), 1<<20)
	if err != nil || !bytes.Equal(resp.Body, body) {
		t.Fatalf("response: %v, body identical=%v", err, err == nil && bytes.Equal(resp.Body, body))
	}
	if rc.meter.written != int64(conn.got.Len()) || rc.meter.written <= int64(len(body)) {
		t.Errorf("meter counted %d bytes, the socket got %d (body %d)", rc.meter.written, conn.got.Len(), len(body))
	}
	if rc.meter.firstWrite.IsZero() {
		t.Error("first write not stamped")
	}
}

// TestStreamResponseFileFallback: over a connection without ReadFrom
// (net.Pipe) the same file body goes through the copy buffer and the
// client gets the same response.
func TestStreamResponseFileFallback(t *testing.T) {
	checkNoLeaks(t)
	srv := unstartedServer(t)
	path, body := docOnDisk(t, 64<<10)
	sent := &readerFromConn{}
	fileResponse(srv, sent, openDoc(t, path), int64(len(body)))
	viaFile, err := httpmsg.ReadResponse(bufio.NewReader(&sent.got), 1<<20)
	if err != nil {
		t.Fatal(err)
	}

	client, server := net.Pipe()
	defer client.Close()
	f := openDoc(t, path)
	done := make(chan int, 1)
	go func() {
		defer server.Close()
		_, status := fileResponse(srv, server, f, int64(len(body)))
		done <- status
	}()
	viaCopy, err := httpmsg.ReadResponse(bufio.NewReader(client), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if status := <-done; status != httpmsg.StatusOK {
		t.Fatalf("fallback status %d", status)
	}
	if !bytes.Equal(viaCopy.Body, body) || !bytes.Equal(viaCopy.Body, viaFile.Body) {
		t.Fatalf("fallback body differs: %d bytes", len(viaCopy.Body))
	}
	delete(viaFile.Header, "Date")
	delete(viaCopy.Header, "Date")
	if !reflect.DeepEqual(viaCopy.Header, viaFile.Header) {
		t.Fatalf("fallback header %v, sendfile header %v", viaCopy.Header, viaFile.Header)
	}
}

// TestStreamResponseTruncatedFile: a file cut below the size its header
// announced sends what it has, counts exactly that, reports io.EOF and
// spends the connection — the contract every streamed body keeps.
func TestStreamResponseTruncatedFile(t *testing.T) {
	checkNoLeaks(t)
	srv := unstartedServer(t)
	const announced, kept = 64 << 10, 10 << 10
	path, body := docOnDisk(t, announced)
	f := openDoc(t, path)
	if err := os.Truncate(path, kept); err != nil {
		t.Fatal(err)
	}

	meter := &writeMeter{Conn: &readerFromConn{}}
	if n, err := meter.sendFile(f, announced); n != kept || err != io.EOF || meter.written != kept {
		t.Fatalf("sendFile of a short file: %d bytes, %v, metered %d; want %d, io.EOF", n, err, meter.written, kept)
	}

	conn := &readerFromConn{}
	rc, status := fileResponse(srv, conn, openDoc(t, path), announced)
	if status != 0 || rc.keepAlive {
		t.Fatalf("short file: status %d, keep-alive %v; want 0 and a spent connection", status, rc.keepAlive)
	}
	got := conn.got.Bytes()
	headEnd := bytes.Index(got, []byte("\r\n\r\n")) + 4
	if !bytes.Equal(got[headEnd:], body[:kept]) {
		t.Fatalf("sent %d body bytes, want the file's remaining %d", len(got)-headEnd, kept)
	}
	if rc.meter.written != int64(len(got)) {
		t.Errorf("meter counted %d bytes, the socket got %d", rc.meter.written, len(got))
	}
	if st := srv.Stats(); st.BytesOut != kept || st.Drops["write_failed"] != 1 {
		t.Errorf("bytes_out %d, write_failed %d; want %d and 1", st.BytesOut, st.Drops["write_failed"], kept)
	}
}
