//go:build !(linux && amd64)

package httpd

import (
	"os"
	"time"
)

// statDisk stats the NUL-terminated path p (a cache entry's Disk) and
// reports the size and modification time os.Stat gives, and ok false when
// the stat fails.
func statDisk(p []byte) (size int64, mod time.Time, ok bool) {
	fi, err := os.Stat(string(p[:len(p)-1]))
	if err != nil {
		return 0, time.Time{}, false
	}
	return fi.Size(), fi.ModTime(), true
}
