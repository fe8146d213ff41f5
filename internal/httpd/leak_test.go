package httpd

import (
	"net"
	"os"
	"runtime"
	"testing"
	"time"
)

// checkNoLeaks fails t if the test leaves goroutines or open descriptors
// behind. Call it first thing: its check is then the test's last cleanup,
// running after every Server the test started has been Closed — Close
// returns only once the server's goroutines are done. Descriptors are
// counted in /proc/self/fd, and not at all where that does not exist. The
// counts are process-wide, so a test that uses this must not run in
// parallel.
func checkNoLeaks(t *testing.T) {
	t.Helper()
	// The network poller's own descriptors live as long as the process:
	// start it before taking the baseline.
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
		ln.Close()
	}
	goroutines, fds := runtime.NumGoroutine(), openFDs()
	t.Cleanup(func() {
		// A goroutine that has already signalled its WaitGroup may still
		// be returning; give it a moment before calling it a leak.
		deadline := time.Now().Add(2 * time.Second)
		for {
			g, fd := runtime.NumGoroutine(), openFDs()
			if g <= goroutines && fd <= fds {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				buf = buf[:runtime.Stack(buf, true)]
				t.Errorf("leaked %d goroutines and %d descriptors; goroutines now:\n%s",
					g-goroutines, fd-fds, buf)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// openFDs counts this process's open descriptors; 0 where /proc is absent.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	return len(ents)
}
