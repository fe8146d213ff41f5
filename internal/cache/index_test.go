package cache_test

import (
	"slices"
	"testing"

	"sweb/internal/cache"
)

// TestIndexDropsEveryPayloadItLetsGo checks the drop hook, through which
// the live cache releases buffers: it sees the payload of every entry the
// index lets go of, whether evicted, invalidated, rejected by a lookup's
// check or replaced by a refresh, and nothing else.
func TestIndexDropsEveryPayloadItLetsGo(t *testing.T) {
	var dropped []int
	x := cache.NewIndex(100, func(v int) { dropped = append(dropped, v) })
	x.Insert("/a", 40, 1)
	x.Insert("/b", 40, 2)
	x.Insert("/a", 70, 3) // refresh: drops payload 1, trims /b off the tail
	x.Insert("/c", 10, 4)
	x.Invalidate("/c")
	x.Invalidate("/missing")
	x.Lookup("/a", func(v int) bool { return v != 3 }) // stale: drops payload 3
	x.Insert("/huge", 101, 5)                          // refused: never held, never dropped
	if want := []int{1, 2, 4, 3}; !slices.Equal(dropped, want) {
		t.Fatalf("dropped %v, want %v", dropped, want)
	}
	if st := x.Stats(); st.Files != 0 || st.UsedBytes != 0 || st.Evictions != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestIndexRefreshPastCapacity grows a resident entry so the total passes
// the capacity: the tail is trimmed, oldest first, and the refreshed entry
// stays as the hottest.
func TestIndexRefreshPastCapacity(t *testing.T) {
	x := cache.NewIndex[struct{}](100, nil)
	for _, p := range []string{"/a", "/b", "/c"} {
		x.Insert(p, 30, struct{}{})
	}
	x.Insert("/a", 80, struct{}{})
	if hot := x.Hot(10); !slices.Equal(hot, []string{"/a"}) {
		t.Fatalf("hot = %v, want [/a]", hot)
	}
	if st := x.Stats(); st.UsedBytes != 80 || st.Evictions != 2 {
		t.Fatalf("stats %+v", st)
	}
}
