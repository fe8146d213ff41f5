package cache_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sweb/internal/cache"
)

// refLRU is a deliberately naive byte-capacity LRU the page cache is
// checked against: a slice in recency order (index 0 is hottest), scanned
// on every call.
type refLRU struct {
	capacity                int64
	ents                    []refEnt
	hits, misses, evictions int64
}

type refEnt struct {
	path string
	size int64
}

func (r *refLRU) find(path string) int {
	return slices.IndexFunc(r.ents, func(e refEnt) bool { return e.path == path })
}

func (r *refLRU) used() (n int64) {
	for _, e := range r.ents {
		n += e.size
	}
	return n
}

// lookup reports whether path is resident and makes it the hottest; only a
// counted lookup moves the hit and miss counters.
func (r *refLRU) lookup(path string, counted bool) bool {
	i := r.find(path)
	switch {
	case counted && i < 0:
		r.misses++
	case counted:
		r.hits++
	}
	if i < 0 {
		return false
	}
	e := r.ents[i]
	r.ents = slices.Insert(slices.Delete(r.ents, i, i+1), 0, e)
	return true
}

// insert puts path first at its new size, replacing any resident copy,
// then evicts from the tail until the capacity holds. Empty files and
// files larger than the capacity are refused.
func (r *refLRU) insert(path string, size int64) {
	if size <= 0 || size > r.capacity {
		return
	}
	r.invalidate(path)
	r.ents = slices.Insert(r.ents, 0, refEnt{path, size})
	for r.used() > r.capacity {
		r.ents = r.ents[:len(r.ents)-1]
		r.evictions++
	}
}

func (r *refLRU) invalidate(path string) {
	if i := r.find(path); i >= 0 {
		r.ents = slices.Delete(r.ents, i, i+1)
	}
}

// lruCapacity and lruSizes set the differential runs' scale: eight paths
// with fixed sizes, among them an empty one and one past the capacity.
const lruCapacity = 1024

var lruSizes = [...]int64{0, lruCapacity + 1, 96, 160, 256, 384, 512, lruCapacity}

func lruPath(i int) string { return fmt.Sprintf("/p%d", i) }

// lruStep applies one operation to the cache and to the reference: a
// counted lookup, a fill-through Fetch, an insert at the path's size, an
// invalidation, a refresh at a different size, or a counted lookup whose
// check finds the entry stale.
func lruStep(t testing.TB, c *cache.Cache, ref *refLRU, kind, i int, refreshSize int64) {
	p := lruPath(i)
	body := func(size int64) cache.Entry { return cache.Entry{Path: p, Body: make([]byte, size)} }
	switch kind {
	case 0:
		if _, hit := c.Lookup(p, nil); hit != ref.lookup(p, true) {
			t.Fatalf("Lookup(%s) hit=%v, reference disagrees", p, hit)
		}
	case 1:
		if _, err := c.Fetch(p, nil, func() (cache.Entry, error) { return body(lruSizes[i]), nil }); err != nil {
			t.Fatalf("Fetch(%s): %v", p, err)
		}
		if !ref.lookup(p, false) {
			ref.insert(p, lruSizes[i])
		}
	case 2:
		c.Insert(body(lruSizes[i]))
		ref.insert(p, lruSizes[i])
	case 3:
		c.Invalidate(p)
		ref.invalidate(p)
	case 4:
		if j := ref.find(p); j >= 0 && ref.ents[j].size == refreshSize {
			refreshSize++
		}
		c.Insert(body(refreshSize))
		ref.insert(p, refreshSize)
	case 5:
		if _, hit := c.Lookup(p, func(cache.Entry) bool { return false }); hit {
			t.Fatalf("Lookup(%s) hit through a rejecting check", p)
		}
		ref.invalidate(p)
		ref.misses++
	}
}

// lruMatch demands that the cache and the reference agree on residency,
// used bytes, counters and LRU order.
func lruMatch(t testing.TB, c *cache.Cache, ref *refLRU) {
	st := c.Stats()
	if st.UsedBytes > lruCapacity {
		t.Fatalf("used %d exceeds capacity %d", st.UsedBytes, lruCapacity)
	}
	if st.UsedBytes != ref.used() || st.Files != len(ref.ents) ||
		st.Hits != ref.hits || st.Misses != ref.misses || st.Evictions != ref.evictions {
		t.Fatalf("state diverges: cache %+v, reference used=%d files=%d hits=%d misses=%d evictions=%d",
			st, ref.used(), len(ref.ents), ref.hits, ref.misses, ref.evictions)
	}
	for i := range lruSizes {
		if p := lruPath(i); c.Peek(p) != (ref.find(p) >= 0) {
			t.Fatalf("residency of %s diverges", p)
		}
	}
	hot := c.Hot(len(lruSizes))
	if len(hot) != len(ref.ents) {
		t.Fatalf("LRU order diverges: cache %v, reference %v", hot, ref.ents)
	}
	for k, p := range hot {
		if p != ref.ents[k].path {
			t.Fatalf("LRU order diverges at %d: cache %v, reference %v", k, hot, ref.ents)
		}
	}
}

// TestLRUPropertyAgainstModel runs a long seeded mix of every operation
// through the live cache and the naive reference in lockstep, checking
// after each one that the capacity holds and that residency, accounting,
// counters and LRU order match.
func TestLRUPropertyAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c, ref := cache.New(lruCapacity), &refLRU{capacity: lruCapacity}
	for op := 0; op < 5000; op++ {
		lruStep(t, c, ref, rng.Intn(6), rng.Intn(len(lruSizes)), rng.Int63n(2*lruCapacity))
		lruMatch(t, c, ref)
	}
}

// FuzzLRUMatchesReference is the differential oracle on arbitrary
// sequences: each three input bytes are one operation (kind, path, and the
// size of a refresh, 0 to 2040 bytes against a 1024-byte capacity, so a
// refresh can grow an entry past the capacity and trim the tail).
func FuzzLRUMatchesReference(f *testing.F) {
	f.Add([]byte{2, 2, 0, 2, 3, 0, 4, 2, 200, 0, 3, 0})
	f.Add([]byte{1, 6, 0, 1, 5, 0, 4, 5, 120, 5, 6, 0, 0, 5, 0})
	f.Add([]byte{2, 7, 0, 2, 0, 0, 2, 1, 0, 1, 4, 0, 3, 4, 0, 0, 4, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		c, ref := cache.New(lruCapacity), &refLRU{capacity: lruCapacity}
		for k := 0; k+2 < len(ops); k += 3 {
			lruStep(t, c, ref, int(ops[k]%6), int(ops[k+1])%len(lruSizes), int64(ops[k+2])*8)
			lruMatch(t, c, ref)
		}
	})
}
