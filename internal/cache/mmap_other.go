//go:build !unix

package cache

// mapBuffer returns a zeroed buffer of n bytes. Without mmap(2) it lives on
// the Go heap, and the collector frees it once unmapBuffer has let go.
func mapBuffer(n int) ([]byte, error) { return make([]byte, n), nil }

// unmapBuffer drops a buffer to the garbage collector.
func unmapBuffer([]byte) {}
