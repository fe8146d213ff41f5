package cache_test

import (
	"fmt"
	"runtime"
	"testing"

	"sweb/internal/cache"
)

// TestCacheBodiesOffHeap fills a 16 MiB cache with 1.5 MiB documents, the
// large_cold shape, through Fetch and Alloc, twice over so eviction and
// reuse run too, and releases every pin. It then collects and reads how
// far the Go heap grew per cached byte: the collector lets a heap grow to
// twice its live bytes, so each heap byte a body held would cost about two
// of the node's memory.
func TestCacheBodiesOffHeap(t *testing.T) {
	const capacity, body = 16 << 20, 3 << 19
	c := cache.New(capacity)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 2*capacity/body+1; i++ {
		path := fmt.Sprintf("/big%02d", i)
		ent, err := c.Fetch(path, nil, func() (cache.Entry, error) {
			e := c.Alloc(body)
			fillPattern(e.Body, i)
			e.Path = path
			return e, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Release(ent)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := c.Stats()
	if st.Evictions == 0 || st.UsedBytes < capacity/2 {
		t.Fatalf("%d bytes cached after %d evictions: the fill did not run", st.UsedBytes, st.Evictions)
	}
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	ratio := float64(growth) / float64(st.UsedBytes)
	t.Logf("heap grew %d bytes for %d cached bytes: %.3f per cached byte", growth, st.UsedBytes, ratio)
	// Bodies live off the heap: under 1 MiB of heap per 16 MiB cached
	// (before they moved off it, 1.10 bytes per cached byte).
	if ratio > 1.0/16 {
		t.Errorf("heap grew %.3f bytes per cached byte, want under 1 MiB per 16 MiB", ratio)
	}
	runtime.KeepAlive(c)
}
