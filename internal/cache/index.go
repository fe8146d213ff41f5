package cache

// Index is the page-cache replacement policy both substrates run: a
// byte-capacity LRU of whole files, standing in for the Unix buffer cache
// on each node. The paper credits SWEB's superlinear speedup to it: with
// requests spread over p nodes the aggregate cache is p times larger and
// each node's working set p times smaller, so hit rates climb with cluster
// size.
//
// Whole files only: an empty file, or one larger than the whole capacity,
// is refused; a newcomer evicts from the LRU tail until it fits. Each
// entry carries a payload V — nothing in the simulator, the body on the
// live server. An Index is not safe for concurrent use: the simulator runs
// on one goroutine, and Cache holds its own lock around every call.
type Index[V any] struct {
	capacity int64
	used     int64
	root     item[V] // sentinel of the circular LRU list; root.next is hottest
	entries  map[string]*item[V]
	// drop, when non-nil, sees every payload the index lets go of:
	// evicted, invalidated, rejected by a lookup's check, or replaced by a
	// refresh.
	drop func(V)

	hits, misses, evictions int64
}

type item[V any] struct {
	path       string
	size       int64
	val        V
	prev, next *item[V]
}

// NewIndex returns an index holding at most capacity bytes. A zero or
// negative capacity yields one that never stores anything. drop may be
// nil.
func NewIndex[V any](capacity int64, drop func(V)) *Index[V] {
	x := &Index[V]{capacity: capacity, entries: make(map[string]*item[V]), drop: drop}
	x.root.prev, x.root.next = &x.root, &x.root
	return x
}

// Admits reports whether a file of size bytes may be cached at all: it
// must be non-empty and no larger than the whole capacity (a 1.5 MB image
// cannot usefully displace the whole cache under the paper's streaming
// access pattern).
func (x *Index[V]) Admits(size int64) bool { return size > 0 && size <= x.capacity }

// Lookup is the counted lookup a request runs once: a resident entry that
// check accepts (a nil check accepts any) is a hit and becomes the most
// recently used; one check rejects is removed, and it or an absent path
// counts a miss.
func (x *Index[V]) Lookup(path string, check func(V) bool) (V, bool) {
	return x.lookup(path, check, true)
}

// lookup is Lookup with counted choosing whether the hit and miss counters
// see it.
func (x *Index[V]) lookup(path string, check func(V) bool, counted bool) (v V, ok bool) {
	it := x.entries[path]
	if it != nil && check != nil && !check(it.val) {
		x.remove(it)
		it = nil
	}
	if it == nil {
		if counted {
			x.misses++
		}
		return v, false
	}
	if counted {
		x.hits++
	}
	x.unlink(it)
	x.pushFront(it)
	return it.val, true
}

// Peek reports whether path is resident without touching the counters or
// the LRU order: the broker's residency signal.
func (x *Index[V]) Peek(path string) bool {
	_, ok := x.entries[path]
	return ok
}

// Insert caches path with size bytes and payload v as the most recently
// used entry, evicting from the LRU tail until it fits. A resident path is
// refreshed in place: new size and payload, then the tail is trimmed if
// it grew past the capacity. Sizes Admits refuses are ignored.
func (x *Index[V]) Insert(path string, size int64, v V) {
	if !x.Admits(size) {
		return
	}
	if it, ok := x.entries[path]; ok {
		x.used += size - it.size
		if x.drop != nil {
			x.drop(it.val)
		}
		it.size, it.val = size, v
		x.unlink(it)
		x.pushFront(it)
		x.evictTo(x.capacity)
		return
	}
	x.evictTo(x.capacity - size)
	it := &item[V]{path: path, size: size, val: v}
	x.pushFront(it)
	x.entries[path] = it
	x.used += size
}

// evictTo evicts from the LRU tail until at most limit bytes are used.
func (x *Index[V]) evictTo(limit int64) {
	for x.used > limit && x.root.prev != &x.root {
		x.remove(x.root.prev)
		x.evictions++
	}
}

// Invalidate removes path if it is resident.
func (x *Index[V]) Invalidate(path string) {
	if it, ok := x.entries[path]; ok {
		x.remove(it)
	}
}

func (x *Index[V]) remove(it *item[V]) {
	x.unlink(it)
	delete(x.entries, it.path)
	x.used -= it.size
	if x.drop != nil {
		x.drop(it.val)
	}
}

func (x *Index[V]) unlink(it *item[V]) {
	it.prev.next, it.next.prev = it.next, it.prev
}

func (x *Index[V]) pushFront(it *item[V]) {
	it.prev, it.next = &x.root, x.root.next
	x.root.next.prev = it
	x.root.next = it
}

// Hot returns up to n resident paths, most recently used first, or nil
// when n <= 0 or nothing is resident: the digest a node gossips for
// cooperative caching.
func (x *Index[V]) Hot(n int) []string {
	if n <= 0 || len(x.entries) == 0 {
		return nil
	}
	out := make([]string, 0, min(n, len(x.entries)))
	for it := x.root.next; it != &x.root && len(out) < n; it = it.next {
		out = append(out, it.path)
	}
	return out
}

// Stats snapshots the counters and the residency. SingleflightShared is
// Cache's to fill in.
func (x *Index[V]) Stats() Stats {
	return Stats{
		Hits:          x.hits,
		Misses:        x.misses,
		Evictions:     x.evictions,
		UsedBytes:     x.used,
		CapacityBytes: x.capacity,
		Files:         len(x.entries),
	}
}
