package cache_test

import (
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"testing"

	"sweb/internal/cache"
)

// bulk is a body size well above the cache's recycling floor.
const bulk = 256 << 10

// sameArray reports whether two bodies start at the same backing byte.
func sameArray(a, b []byte) bool { return &a[0] == &b[0] }

// fillPattern writes the bytes document i must hold: a function of i alone,
// with a period (251) that does not divide any buffer size, so bytes left
// over from another document or a shifted slice never check out.
func fillPattern(body []byte, i int) {
	for k := 0; k < len(body) && k < 251; k++ {
		body[k] = byte(i*31 + k)
	}
	for n := 251; n < len(body); n *= 2 {
		copy(body[n:], body[:n])
	}
}

// TestRecycleStress churns a cache holding three entries with sixteen
// bulk documents from many goroutines. Almost every fill evicts, so evicted
// buffers are recycled into the next fill constantly; every reader yields
// between obtaining its entry and checksumming it, inviting a premature
// recycle to scribble over the bytes it still holds. Run under -race.
func TestRecycleStress(t *testing.T) {
	const docs, readers, rounds = 16, 12, 150
	// Sizes differ but stay within a factor of two of each other, so a
	// buffer freed by one document is a tight fit for any other.
	size := func(i int) int64 { return int64(96+4*i) << 10 }
	want := make([]uint32, docs)
	for i := range want {
		body := make([]byte, size(i))
		fillPattern(body, i)
		want[i] = crc32.ChecksumIEEE(body)
	}
	c := cache.New(3 * size(docs-1))

	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g*7 + r*5 + r/3) % docs
				path := fmt.Sprintf("/doc%02d", i)
				ent, ok := c.Lookup(path, nil)
				if !ok {
					var err error
					ent, err = c.Fetch(path, nil, func() (cache.Entry, error) {
						e := c.Alloc(size(i))
						runtime.Gosched() // a slow disk: the buffer is half-filled for a while
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
				if int64(len(ent.Body)) != size(i) || crc32.ChecksumIEEE(ent.Body) != want[i] {
					t.Errorf("%s: read %d bytes that are not the document's (want %d)", path, len(ent.Body), size(i))
					return
				}
				c.Release(ent)
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Evictions < rounds {
		t.Fatalf("only %d evictions: the stress never exercised recycling", st.Evictions)
	}
}

// TestUnreleasedBufferNeverReused: recycling needs both the eviction and
// the last release. An entry whose holder never lets go keeps its bytes for
// as long as it likes; once it does let go, the very same array serves the
// next fill of that size.
func TestUnreleasedBufferNeverReused(t *testing.T) {
	c := cache.New(4 * bulk)
	held := c.Alloc(bulk)
	held.Path = "/held"
	fillPattern(held.Body, 1)
	sum := crc32.ChecksumIEEE(held.Body)
	c.Insert(held)
	c.Invalidate("/held") // evicted, but the Alloc pin is still out

	for i := 0; i < 8; i++ {
		e := c.Alloc(bulk)
		if sameArray(e.Body, held.Body) {
			t.Fatal("a pinned buffer was handed out again")
		}
		fillPattern(e.Body, 2)
		c.Release(e)
	}
	if crc32.ChecksumIEEE(held.Body) != sum {
		t.Fatal("the pinned entry's bytes changed under its holder")
	}

	// Released but still resident is not free either.
	resident := c.Alloc(bulk)
	resident.Path = "/resident"
	c.Insert(resident)
	c.Release(resident)
	if e := c.Alloc(bulk); sameArray(e.Body, resident.Body) {
		t.Fatal("a resident entry's buffer was handed out again")
	}

	c = cache.New(4 * bulk)
	first := c.Alloc(bulk)
	first.Path = "/first"
	c.Insert(first)
	c.Invalidate("/first")
	c.Release(first)
	if e := c.Alloc(bulk - 100); !sameArray(e.Body, first.Body) || len(e.Body) != bulk-100 {
		t.Fatal("an evicted, released buffer was not reused for the next fill")
	}
}

// TestCallerBuiltBodiesNeverRecycled: entries the caller assembled itself
// may share one backing array (the benchmark's replay does), so eviction
// must never turn their bytes into somebody's fill buffer.
func TestCallerBuiltBodiesNeverRecycled(t *testing.T) {
	c := cache.New(2 * bulk)
	shared := make([]byte, bulk)
	for i := 0; i < 6; i++ {
		ent, err := c.Fetch(fmt.Sprintf("/p%d", i), nil, func() (cache.Entry, error) {
			return cache.Entry{Path: fmt.Sprintf("/p%d", i), Body: shared}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Release(ent)
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no evictions: nothing was tested")
	}
	if e := c.Alloc(bulk); sameArray(e.Body, shared) {
		t.Fatal("a caller-built body was recycled into a fill buffer")
	}
}

// TestTightFitOnly: a freed buffer serves needs between half its capacity
// and all of it; anything smaller gets its own allocation, and bodies under
// the recycling floor are never cache-owned at all.
func TestTightFitOnly(t *testing.T) {
	c := cache.New(8 * bulk)
	big := c.Alloc(bulk)
	c.Release(big) // never inserted: straight to the free list
	if e := c.Alloc(bulk/2 - 1); sameArray(e.Body, big.Body) {
		t.Fatal("a buffer more than twice the need was reused")
	}
	if e := c.Alloc(bulk + 1); sameArray(e.Body, big.Body) {
		t.Fatal("a buffer smaller than the need was reused")
	}
	if e := c.Alloc(bulk / 2); !sameArray(e.Body, big.Body) {
		t.Fatal("a buffer exactly twice the need was not reused")
	}

	small := c.Alloc(1024)
	c.Release(small)
	if e := c.Alloc(1024); sameArray(e.Body, small.Body) {
		t.Fatal("a body under the recycling floor was recycled")
	}
}

// TestSteadyStateFillsAllocateNoBody: once every cache slot and the free
// list hold a buffer, a miss-fill-evict cycle over same-size documents
// allocates bookkeeping only — no body is made, so nothing is zeroed.
func TestSteadyStateFillsAllocateNoBody(t *testing.T) {
	c := cache.New(3 * bulk)
	paths := make([]string, 8)
	for i := range paths {
		paths[i] = fmt.Sprintf("/doc%d", i)
	}
	next := 0
	cycle := func() {
		path := paths[next%len(paths)]
		next++
		ent, err := c.Fetch(path, nil, func() (cache.Entry, error) {
			e := c.Alloc(bulk)
			e.Path = path
			return e, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Release(ent)
	}
	for i := 0; i < 2*len(paths); i++ {
		cycle() // warm-up: fill the slots, start evicting
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 200
	allocs := testing.AllocsPerRun(runs, cycle)
	runtime.ReadMemStats(&after)
	// flight, its channel, the list element, the entry, the fill closure.
	if allocs > 8 {
		t.Errorf("%.0f allocations per steady-state fill, want bookkeeping only", allocs)
	}
	if perFill := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); perFill > bulk/64 {
		t.Errorf("%d bytes allocated per steady-state fill of a %d-byte body", perFill, bulk)
	}
	if st := c.Stats(); st.Evictions < runs {
		t.Fatalf("%d evictions in %d fills: not a steady-state miss stream", st.Evictions, runs)
	}
}
