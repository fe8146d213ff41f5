//go:build unix

package cache

import (
	"os"
	"syscall"
)

// pageSize rounds every mapping: the kernel backs whole pages anyway, so a
// buffer's capacity is what it really costs.
var pageSize = os.Getpagesize()

// mapBuffer returns a zeroed buffer of at least n bytes, rounded up to
// whole pages, mapped off the Go heap: private anonymous memory the
// collector neither scans nor counts toward its heap goal, so each byte
// costs one byte of the node's memory. The slice is the mapping exactly as
// mmap(2) returned it, which is what unmapBuffer needs back.
func mapBuffer(n int) ([]byte, error) {
	n = (n + pageSize - 1) &^ (pageSize - 1)
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
}

// unmapBuffer hands a mapBuffer buffer back to the kernel. Any later read
// of it faults, so only a buffer nothing can read any more may come here.
func unmapBuffer(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic("cache: munmap: " + err.Error())
	}
}
