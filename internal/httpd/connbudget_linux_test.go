package httpd

import (
	"bytes"
	"net"
	"runtime"
	"syscall"
	"testing"

	"sweb/internal/flight"
)

// maxBytesPerConn pins the server-side heap bytes one one-request
// connection costs in steady state: its accept, its serve goroutine's
// state and its one cached hit. With a goroutine, two 4 KiB buffers and
// the rest of a reqConn made new for every connection it read 9488 bytes
// in 22 allocations on go1.24. A parked serve goroutine now keeps its
// reqConn from one connection to the next, and it reads 296 bytes in 6,
// all of them accept's: the socket's netFD and TCPConn and its two
// addresses. The bound is under a quarter of the old figure.
const maxBytesPerConn = 1 << 10

// TestOneRequestConnectionAllocations opens 200 connections in turn at a
// solo node, each carrying one HTTP/1.0 GET of a cached document, and
// divides the process's allocated bytes by the count. The client is raw
// socket system calls on a prebuilt request and a fixed buffer, so it
// allocates nothing and the bytes counted are the server's.
func TestOneRequestConnectionAllocations(t *testing.T) {
	srv, doc := startSoloNode(t, nil)
	addr := srv.ln.Addr().(*net.TCPAddr)
	sa := &syscall.SockaddrInet4{Port: addr.Port}
	copy(sa.Addr[:], addr.IP.To4())
	req := []byte("GET " + doc + " HTTP/1.0\r\n\r\n")
	buf := make([]byte, 4096)
	tv := &syscall.Timeval{Sec: 10}
	oneConn := func() []byte {
		fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer syscall.Close(fd)
		if err := syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, tv); err != nil {
			t.Fatal(err)
		}
		if err := syscall.Connect(fd, sa); err != nil {
			t.Fatal(err)
		}
		if _, err := syscall.Write(fd, req); err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			m, err := syscall.Read(fd, buf[n:])
			if err != nil {
				t.Fatal(err)
			}
			if m == 0 {
				return buf[:n]
			}
			n += m
		}
	}
	// Warm up past the flight recorder's ring, which grows until it holds
	// its last flight.DefaultCap records: steady state is a full ring.
	for i := 0; i < flight.DefaultCap+50; i++ {
		if got := oneConn(); !bytes.HasPrefix(got, []byte("HTTP/1.0 200 OK\r\n")) {
			t.Fatalf("warm-up response: %q", got)
		}
	}
	const conns = 200
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < conns; i++ {
		oneConn()
	}
	runtime.ReadMemStats(&m1)
	perConn := float64(m1.TotalAlloc-m0.TotalAlloc) / conns
	t.Logf("%.0f bytes, %.1f allocations per one-request connection",
		perConn, float64(m1.Mallocs-m0.Mallocs)/conns)
	if perConn > maxBytesPerConn {
		t.Fatalf("%.0f bytes allocated per one-request connection, want at most %d", perConn, maxBytesPerConn)
	}
}
