package cache

// BufferBytes reports, under the lock, the bytes of the buffers the cache
// has mapped and not yet unmapped, and of those the bytes its resident
// entries hold and its free list holds. Once every pin is released the
// first is the sum of the other two.
func (c *Cache) BufferBytes() (mapped, resident, free int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[*buffer]bool)
	for _, it := range c.idx.entries {
		if b := it.val.buf; b != nil && !seen[b] {
			seen[b] = true
			resident += int64(cap(b.data))
		}
	}
	return c.mapped.Load(), resident, c.freeSize
}
