package model

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"sweb/internal/cache"
	"sweb/internal/des"
)

// pageCache returns the page cache of a node whose spec gives it capacity
// bytes: the internal/cache Index the simulator's request path drives.
func pageCache(t *testing.T, capacity int64) *cache.Index[struct{}] {
	t.Helper()
	spec := MeikoNodeSpec("cache")
	spec.FileCacheBytes = capacity
	n, err := NewNode(des.New(), 0, spec)
	if err != nil {
		t.Fatal(err)
	}
	return n.Cache
}

// contains is the simulator's counted lookup of path.
func contains(c *cache.Index[struct{}], path string) bool {
	_, hit := c.Lookup(path, nil)
	return hit
}

func insert(c *cache.Index[struct{}], path string, size int64) { c.Insert(path, size, struct{}{}) }

func TestCacheInsertAndContains(t *testing.T) {
	c := pageCache(t, 100)
	if contains(c, "/a") {
		t.Fatal("empty cache contains /a")
	}
	insert(c, "/a", 40)
	if !contains(c, "/a") {
		t.Fatal("inserted file missing")
	}
	if c.Stats().UsedBytes != 40 || c.Stats().Files != 1 {
		t.Fatalf("used=%d len=%d", c.Stats().UsedBytes, c.Stats().Files)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := pageCache(t, 100)
	insert(c, "/a", 40)
	insert(c, "/b", 40)
	insert(c, "/c", 40) // evicts /a (LRU)
	if c.Peek("/a") {
		t.Fatal("/a should be evicted")
	}
	if !c.Peek("/b") || !c.Peek("/c") {
		t.Fatal("/b or /c wrongly evicted")
	}
	if c.Stats().UsedBytes != 80 {
		t.Fatalf("used = %d", c.Stats().UsedBytes)
	}
}

func TestCacheTouchProtectsFromEviction(t *testing.T) {
	c := pageCache(t, 100)
	insert(c, "/a", 40)
	insert(c, "/b", 40)
	contains(c, "/a") // the hit makes /a MRU
	insert(c, "/c", 40)
	if !c.Peek("/a") {
		t.Fatal("touched /a evicted")
	}
	if c.Peek("/b") {
		t.Fatal("/b should have been evicted as LRU")
	}
}

func TestCacheOversizeFileIgnored(t *testing.T) {
	c := pageCache(t, 100)
	insert(c, "/big", 101)
	if c.Stats().Files != 0 || c.Stats().UsedBytes != 0 {
		t.Fatal("oversize file was cached")
	}
	insert(c, "/zero", 0)
	if c.Stats().Files != 0 {
		t.Fatal("zero-size file was cached")
	}
	insert(c, "/neg", -5)
	if c.Stats().Files != 0 {
		t.Fatal("negative-size file was cached")
	}
}

func TestCacheExactFit(t *testing.T) {
	c := pageCache(t, 100)
	insert(c, "/a", 100)
	if !c.Peek("/a") {
		t.Fatal("exact-capacity file rejected")
	}
	insert(c, "/b", 1)
	if c.Peek("/a") {
		t.Fatal("/a should be evicted to fit /b")
	}
}

func TestCacheDuplicateInsertMovesToFront(t *testing.T) {
	c := pageCache(t, 100)
	insert(c, "/a", 40)
	insert(c, "/b", 40)
	insert(c, "/a", 40) // duplicate: refresh, no double count
	if c.Stats().UsedBytes != 80 || c.Stats().Files != 2 {
		t.Fatalf("used=%d len=%d", c.Stats().UsedBytes, c.Stats().Files)
	}
	insert(c, "/c", 40)
	if c.Peek("/b") || !c.Peek("/a") {
		t.Fatal("duplicate insert did not refresh recency")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := pageCache(t, 100)
	insert(c, "/a", 60)
	c.Invalidate("/a")
	if c.Peek("/a") || c.Stats().UsedBytes != 0 {
		t.Fatal("invalidate failed")
	}
	c.Invalidate("/missing") // no-op
}

func TestCacheStatsAndHitRate(t *testing.T) {
	c := pageCache(t, 100)
	contains(c, "/a") // miss
	insert(c, "/a", 10)
	contains(c, "/a") // hit
	contains(c, "/a") // hit
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", st.Hits, st.Misses)
	}
	if got := st.HitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("hit rate = %v", got)
	}
	empty := pageCache(t, 10)
	if empty.Stats().HitRate() != 0 {
		t.Fatal("empty cache hit rate should be 0")
	}
}

func TestCacheZeroCapacityNeverStores(t *testing.T) {
	c := pageCache(t, 0)
	insert(c, "/a", 1)
	if c.Stats().Files != 0 {
		t.Fatal("zero-capacity cache stored a file")
	}
}

// Property: after any operation sequence, the used bytes equal the sum of
// resident entries and never exceed capacity.
func TestCacheInvariantProperty(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		const capacity = 1000
		c := pageCache(t, capacity)
		rng := rand.New(rand.NewSource(seed))
		resident := map[string]int64{}
		for _, op := range ops {
			path := fmt.Sprintf("/f%d", op%31)
			_ = rng
			// Size is a deterministic function of the path, as in the
			// simulator, so a re-insert only refreshes recency.
			switch op % 4 {
			case 0:
				size := int64(op%31)*13 + 1
				insert(c, path, size)
				if size <= capacity {
					resident[path] = size
				}
			case 1:
				// A lookup whose check rejects the entry removes it.
				c.Lookup(path, func(struct{}) bool { return false })
				delete(resident, path)
			case 2:
				c.Invalidate(path)
				delete(resident, path)
			case 3:
				contains(c, path)
			}
			// Resident map is a superset of cache contents (evictions
			// shrink the cache), so recompute from the cache itself:
			var used int64
			for p, sz := range resident {
				if c.Peek(p) {
					used += sz
				}
			}
			if c.Stats().UsedBytes > capacity {
				return false
			}
			if c.Stats().UsedBytes != used {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheHotReturnsMRUOrder(t *testing.T) {
	c := pageCache(t, 1000)
	insert(c, "/a", 10)
	insert(c, "/b", 10)
	insert(c, "/c", 10)
	contains(c, "/a") // a is now hottest
	hot := c.Hot(2)
	if len(hot) != 2 || hot[0] != "/a" || hot[1] != "/c" {
		t.Fatalf("hot = %v", hot)
	}
	if got := c.Hot(10); len(got) != 3 {
		t.Fatalf("hot(10) = %v", got)
	}
	if c.Hot(0) != nil {
		t.Fatal("hot(0) should be nil")
	}
	if pageCache(t, 10).Hot(5) != nil {
		t.Fatal("empty cache hot should be nil")
	}
}
