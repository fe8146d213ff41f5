// Package cache is the page cache of both substrates. Index is the one
// replacement policy — a byte-capacity LRU of whole files standing in for
// the Unix buffer cache the paper credits for SWEB's superlinear
// multi-node speedup — and the simulator's nodes hold it directly, with no
// payload. Cache wraps the same Index for the live server: bodies of real
// bytes, a lock, singleflight miss coalescing and recycled fill buffers
// mapped off the Go heap.
// A live lookup also re-checks its entry against the backing truth (a stat
// for local files, the manifest size for relayed ones) and treats a stale
// entry as a miss, so a mutated document is never served from memory.
package cache

import (
	"sync"
	"sync/atomic"
	"time"
)

// Entry is one cached document: the full response body plus the
// modification time it was read at (zero when a remote owner sent no
// Last-Modified) and, for a document read from a local disk, the
// NUL-terminated file path its staleness check stats, resolved once at
// fill time (nil for a relayed document).
//
// An entry whose Body came from Alloc also carries a pin on that buffer:
// Alloc, Lookup and Fetch each hand out one pin per returned entry, and
// Release gives it back once the caller has finished reading Body; a read
// of Body after its Release may fault. A caller-built Entry{Body: ...}
// carries no pin and its bytes are never recycled, so Release on it is a
// no-op.
type Entry struct {
	Path    string
	Body    []byte
	ModTime time.Time
	Disk    []byte

	buf *buffer
}

// Buffer recycling bounds. They are constants, not knobs: the free list
// only has to bridge one eviction to the next fill.
const (
	// recycleMin is the smallest body worth owning: below it zeroing a
	// fresh slice does not show in a profile, and tracking would let small
	// entries sit on big buffers.
	recycleMin = 64 << 10
	// freeMax bounds the free list's length; its bytes are further bounded
	// by half the cache capacity so huge documents are unmapped at once.
	freeMax = 4
)

// buffer is one fill buffer the cache handed out through Alloc, mapped off
// the Go heap (mapBuffer). It is recycled or unmapped only when no cache
// slot holds it and every pin is released; a pin that is never released
// leaks the mapping for the life of the process, since nothing else ever
// frees it. All fields are guarded by Cache.mu.
type buffer struct {
	data  []byte // the whole mapping, as mapBuffer returned it
	pins  int    // entries handed out and not yet released
	slots int    // cache slots whose Body is this buffer
}

// Stats is a consistent snapshot of the cache counters.
type Stats struct {
	Hits               int64
	Misses             int64
	Evictions          int64
	SingleflightShared int64
	UsedBytes          int64
	CapacityBytes      int64
	Files              int
}

// HitRate returns the fraction of counted lookups that hit, or 0 if none.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// flight is one in-progress fill; latecomers for the same path wait on
// done instead of issuing their own backing read.
type flight struct {
	done    chan struct{}
	ent     Entry
	err     error
	waiters int // latecomers blocked on done, each owed a pin on ent
}

// Cache is the live hot-file cache: an Index of entries under one lock.
// All methods are safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	idx      *Index[Entry]
	flights  map[string]*flight
	free     []*buffer // evicted, unpinned buffers awaiting reuse
	freeSize int64     // sum of cap(data) over free
	shared   int64
	mapped   atomic.Int64 // sum of cap(data) over buffers not yet unmapped
}

// New returns an LRU cache holding at most capacity bytes. A zero or
// negative capacity yields a cache that never stores anything (every
// lookup misses, every insert is refused) — the -cache-off behaviour with
// the wiring still in place.
func New(capacity int64) *Cache {
	c := &Cache{flights: make(map[string]*flight)}
	c.idx = NewIndex(capacity, c.dropLocked)
	return c
}

// Admits reports whether a document of size bytes can go through the
// cache at all (the Index's refusal rule); a nil cache admits nothing.
// Anything else streams straight from its source.
func (c *Cache) Admits(size int64) bool { return c != nil && c.idx.Admits(size) }

// lookupLocked is the Index lookup plus a pin on a hit. counted selects
// whether the hit and miss counters see it: the client-facing serving path
// counts one lookup per request, exactly as the simulator does, while
// internal probes stay quiet like the simulator's Peek.
func (c *Cache) lookupLocked(path string, check func(Entry) bool, counted bool) (Entry, bool) {
	ent, ok := c.idx.lookup(path, check, counted)
	if ok && ent.buf != nil {
		ent.buf.pins++
	}
	return ent, ok
}

// Lookup is the counted, validated lookup the serving path runs once per
// request: a valid hit bumps the entry to most-recently-used and the hit
// counter; anything else (absent, or invalidated by check) counts a miss.
// check may be nil to accept any resident entry; it runs under the cache
// lock so validation and invalidation are atomic — keep it to a stat. A
// hit is pinned: Release it once its Body has been written out.
func (c *Cache) Lookup(path string, check func(Entry) bool) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookupLocked(path, check, true)
}

// Peek reports whether path is resident without touching statistics, LRU
// order, or validation — the broker's stat-free cache-residency signal.
func (c *Cache) Peek(path string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.idx.Peek(path)
}

// Fetch returns the cached entry for path or, on a miss, fills it with one
// backing read shared by every concurrent caller (singleflight): the first
// caller runs fill outside the lock, latecomers block on its result, and a
// successful fill is inserted. The internal lookup is quiet — Fetch is the
// fill-through half of the serving path, whose counted Lookup already ran.
// fill errors are returned to every waiter and nothing is cached. fill
// should take its body from Alloc (and Release it itself on failure): the
// pin Alloc gave it becomes the caller's, and every waiter sharing the
// flight gets one of its own, so each successful return is Released once.
func (c *Cache) Fetch(path string, check func(Entry) bool, fill func() (Entry, error)) (Entry, error) {
	c.mu.Lock()
	if ent, ok := c.lookupLocked(path, check, false); ok {
		c.mu.Unlock()
		return ent, nil
	}
	if f, ok := c.flights[path]; ok {
		c.shared++
		f.waiters++
		c.mu.Unlock()
		<-f.done
		return f.ent, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[path] = f
	c.mu.Unlock()

	f.ent, f.err = fill()

	c.mu.Lock()
	delete(c.flights, path) // no waiter can join past this point
	if f.err == nil {
		c.insertLocked(f.ent)
		if f.ent.buf != nil {
			f.ent.buf.pins += f.waiters
		}
	}
	c.mu.Unlock()
	close(f.done)
	return f.ent, f.err
}

// Alloc returns an entry whose Body is n bytes of unspecified content for a
// fill to read a document into; the caller sets Path and ModTime. Bodies of
// recycleMin bytes and more are owned by the cache and live off the Go
// heap: the entry is pinned, and once it has been evicted (or was never
// inserted) and every pin is Released, the buffer serves a later Alloc of a
// similar size instead of a fresh mapping, or is unmapped. A nil cache
// hands out plain slices, and so does a cache the OS refuses a mapping.
func (c *Cache) Alloc(n int64) Entry {
	if c == nil || n < recycleMin {
		return Entry{Body: make([]byte, n)}
	}
	if b := c.takeFree(n); b != nil {
		return Entry{Body: b.data[:n], buf: b}
	}
	data, err := mapBuffer(int(n)) // zeroed by the kernel, outside the lock
	if err != nil {
		return Entry{Body: make([]byte, n)}
	}
	c.mapped.Add(int64(cap(data)))
	return Entry{Body: data[:n], buf: &buffer{data: data, pins: 1}}
}

// takeFree pops, pinned, the smallest free buffer holding n bytes in at
// most twice that capacity — a tight fit only, so a small document never
// sits on a large buffer — or returns nil.
func (c *Cache) takeFree(n int64) *buffer {
	c.mu.Lock()
	defer c.mu.Unlock()
	best := -1
	for i, b := range c.free {
		if k := int64(cap(b.data)); k >= n && k <= 2*n && (best < 0 || k < int64(cap(c.free[best].data))) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	b := c.free[best]
	last := len(c.free) - 1
	c.free[best], c.free[last] = c.free[last], nil
	c.free = c.free[:last]
	c.freeSize -= int64(cap(b.data))
	b.pins = 1
	return b
}

// Release drops the pin an entry from Alloc, Lookup or Fetch carries. Call
// it exactly once per such entry, after the last read of Body: the buffer
// may be unmapped the moment its last pin goes. A release that is
// forgotten leaks the buffer's mapping. Entries without a cache-owned body
// (and a nil cache) make it a no-op.
func (c *Cache) Release(ent Entry) {
	b := ent.buf
	if c == nil || b == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if b.pins <= 0 {
		panic("cache: Release of an entry that holds no pin")
	}
	b.pins--
	c.recycleLocked(b)
}

// recycleLocked moves b to the free list if nothing can read it any more.
// A full list unmaps it.
func (c *Cache) recycleLocked(b *buffer) {
	if b.pins > 0 || b.slots > 0 {
		return
	}
	if k := int64(cap(b.data)); len(c.free) < freeMax && c.freeSize+k <= c.idx.capacity/2 {
		c.free = append(c.free, b)
		c.freeSize += k
		return
	}
	c.unmapLocked(b)
}

// unmapLocked returns b's memory to the kernel.
func (c *Cache) unmapLocked(b *buffer) {
	c.mapped.Add(-int64(cap(b.data)))
	unmapBuffer(b.data)
	b.data = nil
}

// dropLocked takes a cache slot's claim off its entry's buffer; the Index
// calls it for every entry it lets go of.
func (c *Cache) dropLocked(ent Entry) {
	if b := ent.buf; b != nil {
		b.slots--
		c.recycleLocked(b)
	}
}

// Insert adds an entry, evicting least-recently-used entries to fit; the
// Index refuses empty bodies and bodies larger than the whole capacity.
func (c *Cache) Insert(ent Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(ent)
}

func (c *Cache) insertLocked(ent Entry) {
	size := int64(len(ent.Body))
	if !c.idx.Admits(size) {
		return
	}
	if ent.buf != nil {
		// The slot's claim, taken before the Index drops anything, so
		// refreshing a path with the buffer it already holds never frees it.
		ent.buf.slots++
	}
	c.idx.Insert(ent.Path, size, ent)
}

// Invalidate removes path if present (a write-path hook; the read path
// invalidates through Lookup's check).
func (c *Cache) Invalidate(path string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.idx.Invalidate(path)
}

// Close empties the cache and unmaps every buffer nothing reads: the
// resident entries and the free list at once, a pinned buffer at its last
// Release. A closed cache stores nothing more, as one of zero capacity. A
// nil cache makes it a no-op.
func (c *Cache) Close() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.idx.capacity = 0 // refuses inserts; no buffer fits the free list
	for path := range c.idx.entries {
		c.idx.Invalidate(path)
	}
	for _, b := range c.free {
		c.unmapLocked(b)
	}
	c.free, c.freeSize = nil, 0
}

// Hot returns up to n most-recently-used cached paths, hottest first.
func (c *Cache) Hot(n int) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.idx.Hot(n)
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.idx.Stats()
	st.SingleflightShared = c.shared
	return st
}
