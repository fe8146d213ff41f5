// Package cache is the live substrate's hot-file memory cache: a
// byte-capacity-bounded LRU of whole response bodies with singleflight
// miss coalescing, standing in for the Unix buffer cache the paper credits
// for SWEB's superlinear multi-node speedup. Its replacement semantics —
// whole files only, refuse anything larger than the capacity, evict from
// the LRU tail until the newcomer fits — deliberately mirror
// internal/model.FileCache byte for byte, so a differential test can drive
// both caches with one request sequence and demand identical hit, miss,
// insert, and eviction streams. Unlike the simulator's size-only model,
// entries here hold real bytes and carry a validator hook: a lookup
// re-checks the entry against the backing truth (a stat for local files,
// the manifest size for relayed ones) and treats a stale entry as a miss,
// so a mutated document is never served from memory.
package cache

import (
	"container/list"
	"sync"
	"time"
)

// Event kinds emitted to the OnEvent hook; the same vocabulary the
// simulator's model.FileCache emits, so differential tests compare streams
// verbatim.
const (
	EvHit    = "hit"
	EvMiss   = "miss"
	EvInsert = "insert"
	EvEvict  = "evict"
)

// Entry is one cached document: the full response body plus the
// modification time it was read at (zero when a remote owner sent no
// Last-Modified).
//
// An entry whose Body came from Alloc also carries a pin on that buffer:
// Alloc, Lookup and Fetch each hand out one pin per returned entry, and
// Release gives it back once the caller has finished reading Body. A
// caller-built Entry{Body: ...} carries no pin and its bytes are never
// recycled, so Release on it is a no-op.
type Entry struct {
	Path    string
	Body    []byte
	ModTime time.Time

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
	// by half the cache capacity so huge documents are left to the GC.
	freeMax = 4
)

// buffer is one fill buffer the cache handed out through Alloc. It is
// recycled only when no cache slot holds it and every pin is released; a
// pin that is never released keeps it out of the free list for good and
// the garbage collector frees it. All fields are guarded by Cache.mu.
type buffer struct {
	data  []byte // full-capacity backing array
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

type entry struct {
	Entry
	size int64
}

// flight is one in-progress fill; latecomers for the same path wait on
// done instead of issuing their own backing read.
type flight struct {
	done    chan struct{}
	ent     Entry
	err     error
	waiters int // latecomers blocked on done, each owed a pin on ent
}

// Cache is the hot-file LRU. All methods are safe for concurrent use.
type Cache struct {
	// OnEvent, when non-nil, observes every transition ("hit", "miss",
	// "insert", "evict" with the affected path) under the cache lock, in
	// the order they happen — the differential-test tap. Set it before
	// the cache is shared; keep the callback cheap.
	OnEvent func(kind, path string)

	mu       sync.Mutex
	capacity int64
	used     int64
	order    *list.List // front = most recently used
	entries  map[string]*list.Element
	flights  map[string]*flight
	free     []*buffer // evicted, unpinned buffers awaiting reuse
	freeSize int64     // sum of cap(data) over free

	hits, misses, evictions, shared int64
}

// New returns an LRU cache holding at most capacity bytes. A zero or
// negative capacity yields a cache that never stores anything (every
// lookup misses, every insert is refused) — the -cache-off behaviour with
// the wiring still in place.
func New(capacity int64) *Cache {
	return &Cache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
		flights:  make(map[string]*flight),
	}
}

// Capacity returns the configured byte capacity.
func (c *Cache) Capacity() int64 { return c.capacity }

func (c *Cache) emit(kind, path string) {
	if c.OnEvent != nil {
		c.OnEvent(kind, path)
	}
}

// lookupLocked finds path, validates it, and moves it to the MRU position
// on a valid hit. A stale entry is removed and reported as absent. counted
// selects whether the hit/miss statistics (and OnEvent) see this lookup:
// the client-facing serving path counts one lookup per request, exactly as
// the simulator's Contains does, while internal probes stay quiet like the
// simulator's Peek.
func (c *Cache) lookupLocked(path string, check func(Entry) bool, counted bool) (Entry, bool) {
	el, ok := c.entries[path]
	if ok && check != nil && !check(el.Value.(*entry).Entry) {
		c.removeLocked(el)
		ok = false
	}
	if !ok {
		if counted {
			c.misses++
			c.emit(EvMiss, path)
		}
		return Entry{}, false
	}
	if counted {
		c.hits++
		c.emit(EvHit, path)
	}
	c.order.MoveToFront(el)
	ent := el.Value.(*entry).Entry
	if ent.buf != nil {
		ent.buf.pins++
	}
	return ent, true
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
// order, or validation — the broker's stat-free cache-residency signal,
// mirroring model.FileCache.Peek.
func (c *Cache) Peek(path string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[path]
	return ok
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
// recycleMin bytes and more are owned by the cache: the entry is pinned,
// and once it has been evicted (or was never inserted) and every pin is
// Released, the buffer serves a later Alloc of a similar size instead of a
// fresh, zeroed make. A nil cache hands out plain slices.
func (c *Cache) Alloc(n int64) Entry {
	if c == nil || n < recycleMin {
		return Entry{Body: make([]byte, n)}
	}
	if b := c.takeFree(n); b != nil {
		return Entry{Body: b.data[:n], buf: b}
	}
	body := make([]byte, n) // zeroed outside the lock
	return Entry{Body: body, buf: &buffer{data: body, pins: 1}}
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
// it exactly once per such entry, after the last read of Body; a release
// that is forgotten only costs the buffer's reuse. Entries without a
// cache-owned body (and a nil cache) make it a no-op.
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
// A full list drops it to the garbage collector.
func (c *Cache) recycleLocked(b *buffer) {
	if b.pins > 0 || b.slots > 0 {
		return
	}
	if k := int64(cap(b.data)); len(c.free) < freeMax && c.freeSize+k <= c.capacity/2 {
		c.free = append(c.free, b)
		c.freeSize += k
	}
}

// dropLocked takes a cache slot's claim off its entry's buffer.
func (c *Cache) dropLocked(ent Entry) {
	if b := ent.buf; b != nil {
		b.slots--
		c.recycleLocked(b)
	}
}

// Insert adds an entry, evicting least-recently-used entries to fit,
// with model.FileCache's exact refusal rules: empty bodies and bodies
// larger than the whole capacity are not cached at all.
func (c *Cache) Insert(ent Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(ent)
}

func (c *Cache) insertLocked(ent Entry) {
	size := int64(len(ent.Body))
	if size <= 0 || size > c.capacity {
		return
	}
	if ent.buf != nil {
		// The slot's claim, taken before anything below is dropped, so
		// refreshing a path with the buffer it already holds never frees it.
		ent.buf.slots++
	}
	if el, ok := c.entries[ent.Path]; ok {
		// Refresh in place (a concurrent fill raced a revalidation):
		// replace the bytes, keep the LRU/accounting behaviour identical
		// to the model's existing-key Insert — move to front, no event.
		old := el.Value.(*entry)
		c.used += size - old.size
		c.dropLocked(old.Entry)
		old.Entry, old.size = ent, size
		c.order.MoveToFront(el)
		c.evictOverflowLocked()
		return
	}
	for c.used+size > c.capacity {
		back := c.order.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions++
		c.emit(EvEvict, back.Value.(*entry).Path)
	}
	el := c.order.PushFront(&entry{Entry: ent, size: size})
	c.entries[ent.Path] = el
	c.used += size
	c.emit(EvInsert, ent.Path)
}

// evictOverflowLocked trims the tail after an in-place refresh grew an
// entry past the capacity.
func (c *Cache) evictOverflowLocked() {
	for c.used > c.capacity {
		back := c.order.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions++
		c.emit(EvEvict, back.Value.(*entry).Path)
	}
}

func (c *Cache) removeLocked(el *list.Element) {
	ent := el.Value.(*entry)
	c.order.Remove(el)
	delete(c.entries, ent.Path)
	c.used -= ent.size
	c.dropLocked(ent.Entry)
}

// Invalidate removes path if present (a write-path hook; the read path
// invalidates through Lookup's check).
func (c *Cache) Invalidate(path string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[path]; ok {
		c.removeLocked(el)
	}
}

// Hot returns up to n most-recently-used cached paths, hottest first —
// the residency digest /sweb/status shows.
func (c *Cache) Hot(n int) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n <= 0 {
		return nil
	}
	out := make([]string, 0, n)
	for el := c.order.Front(); el != nil && len(out) < n; el = el.Next() {
		out = append(out, el.Value.(*entry).Path)
	}
	return out
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:               c.hits,
		Misses:             c.misses,
		Evictions:          c.evictions,
		SingleflightShared: c.shared,
		UsedBytes:          c.used,
		CapacityBytes:      c.capacity,
		Files:              c.order.Len(),
	}
}
