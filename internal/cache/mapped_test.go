package cache_test

import (
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"testing"

	"sweb/internal/cache"
)

// checkMapped fails unless every byte the cache has mapped is held by a
// resident entry or waits on the free list: with no pin out, anything else
// is a leaked mapping.
func checkMapped(t *testing.T, c *cache.Cache, when string) {
	t.Helper()
	mapped, resident, free := c.BufferBytes()
	if mapped != resident+free {
		t.Fatalf("%s: %d bytes mapped, but resident entries hold %d and the free list %d", when, mapped, resident, free)
	}
}

// TestMappedBytesAccounting churns a small cache from many goroutines with
// documents of sizes that often do not fit a freed buffer, so fills map,
// reuse and unmap all the time: hits, concurrent misses on one path
// sharing a fill, fills that fail after taking their buffer, and
// invalidations. Once every pin is back, the mapped bytes are exactly the
// resident and free-list bytes; once the cache is closed they are zero.
func TestMappedBytesAccounting(t *testing.T) {
	const docs, workers, rounds = 12, 10, 120
	size := func(i int) int64 { return int64(64+40*i) << 10 } // 64 KiB to 504 KiB
	want := make([]uint32, docs)
	for i := range want {
		body := make([]byte, size(i))
		fillPattern(body, i)
		want[i] = crc32.ChecksumIEEE(body)
	}
	c := cache.New(4 * size(docs-1))
	errFill := errors.New("disk error")

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g*5 + r*7 + r/4) % docs
				path := fmt.Sprintf("/doc%02d", i)
				switch (g + r) % 9 {
				case 0:
					c.Invalidate(path)
					continue
				case 1:
					_, err := c.Fetch(path+"-bad", nil, func() (cache.Entry, error) {
						e := c.Alloc(size(i))
						runtime.Gosched()
						c.Release(e)
						return cache.Entry{}, errFill
					})
					if !errors.Is(err, errFill) {
						t.Errorf("failed fill of %s returned %v", path, err)
						return
					}
					continue
				}
				ent, ok := c.Lookup(path, nil)
				if !ok {
					var err error
					ent, err = c.Fetch(path, nil, func() (cache.Entry, error) {
						e := c.Alloc(size(i))
						runtime.Gosched() // latecomers join this flight
						fillPattern(e.Body, i)
						e.Path = path
						return e, nil
					})
					if err != nil {
						t.Errorf("Fetch(%s): %v", path, err)
						return
					}
				}
				runtime.Gosched()
				if crc32.ChecksumIEEE(ent.Body) != want[i] {
					t.Errorf("%s: read bytes that are not the document's", path)
					return
				}
				c.Release(ent)
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Evictions == 0 || st.SingleflightShared == 0 {
		t.Fatalf("%d evictions and %d shared fills: the churn did not exercise the cache", st.Evictions, st.SingleflightShared)
	}
	checkMapped(t, c, "after the churn")

	for i := 0; i < docs; i++ {
		c.Invalidate(fmt.Sprintf("/doc%02d", i))
	}
	checkMapped(t, c, "after invalidating everything")

	held := c.Alloc(size(3))
	c.Close()
	if mapped, _, _ := c.BufferBytes(); mapped != int64(cap(held.Body)) {
		t.Fatalf("closed with one pin out: %d bytes still mapped, want the pinned %d", mapped, cap(held.Body))
	}
	fillPattern(held.Body, 3) // a pinned buffer stays readable across Close
	c.Release(held)
	if mapped, _, _ := c.BufferBytes(); mapped != 0 {
		t.Fatalf("closed and every pin released: %d bytes still mapped", mapped)
	}
	late := c.Alloc(size(0))
	late.Path = "/late"
	c.Insert(late)
	c.Release(late)
	if mapped, _, _ := c.BufferBytes(); mapped != 0 || c.Stats().Files != 0 {
		t.Fatalf("a closed cache kept a buffer (%d bytes mapped) or an entry", mapped)
	}
}
