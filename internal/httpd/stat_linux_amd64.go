package httpd

import (
	"syscall"
	"time"
	"unsafe"
)

// atFDCWD is AT_FDCWD (-100) as a syscall argument: a relative path
// resolves against the working directory, as os.Stat's does.
const atFDCWD = ^uintptr(99)

// statDisk stats the NUL-terminated path p (a cache entry's Disk) into a
// Stat_t on the stack: one fstatat(2), with none of the allocations of
// os.Stat's string conversion and FileInfo. It reports the size and
// modification time os.Stat would, and ok false when the stat fails.
func statDisk(p []byte) (size int64, mod time.Time, ok bool) {
	var st syscall.Stat_t
	for {
		_, _, errno := syscall.Syscall6(syscall.SYS_NEWFSTATAT, atFDCWD,
			uintptr(unsafe.Pointer(&p[0])), uintptr(unsafe.Pointer(&st)), 0, 0, 0)
		switch errno {
		case 0:
			return st.Size, time.Unix(st.Mtim.Sec, st.Mtim.Nsec), true
		case syscall.EINTR:
			continue
		}
		return 0, time.Time{}, false
	}
}
